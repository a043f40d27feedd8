"""The exact_algebra workload program.

Run as `python3 bench/algebra.py SPEC_JSON OUT_PATH` with the package on
PYTHONPATH. For every sigma and correspondence it builds the basic
polynomials up to the requested degree, checks the lowering relation, the
Heisenberg commutator and the closed-form lattice values with the package's
own exact arithmetic, and writes each B_n at one rational point so that the
benchmark can compare it with an independent product formula.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from umbralqm import correspondences
from umbralqm.correspondences import basic_polynomial, basic_polynomial_value
from umbralqm.operators import (
    Correspondence,
    DeltaOperator,
    Kind,
    apply_delta,
    commutator_residual,
)


def parse_sigma(text: str) -> Fraction:
    """'p/q' is an exact rational; a decimal is read as the binary float users get."""
    return Fraction(text) if "/" in text else Fraction(float(text))


def _cache_size():
    cached = getattr(correspondences, "_basic_cached", None)
    info = getattr(cached, "cache_info", None)
    return info().currsize if info else None


def run(spec: dict) -> dict:
    point = Fraction(spec["point"])
    ms = spec["lattice_ms"]
    out = {"cache_size_at_start": _cache_size(), "results": []}
    for sigma_text, degree in spec["sigmas"]:
        sigma = parse_sigma(sigma_text)
        for kind in Kind:
            c = Correspondence(kind, sigma)
            d = DeltaOperator.for_correspondence(c)
            lowering, lattice, values = [], [], []
            prev = None
            for n in range(degree + 1):
                b = basic_polynomial(c, n)
                if n:
                    lowering.append(apply_delta(d, b) == n * prev)
                lattice.append([b(m * sigma) == basic_polynomial_value(c, n, m) for m in ms])
                values.append(str(b(point)))
                prev = b
            out["results"].append(
                {
                    "sigma": sigma_text,
                    "kind": kind.value,
                    "degree": degree,
                    "commutator_zero": commutator_residual(c, degree) == 0,
                    "lowering": lowering,
                    "lattice_equal": lattice,
                    "values_at_point": values,
                }
            )
    return out


def main(argv: list[str]) -> int:
    spec_text, out_path = argv
    result = run(json.loads(spec_text))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
