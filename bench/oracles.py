"""Independent oracles for the workload outputs.

Nothing here imports the package under test. Values are recomputed from
closed forms (mpmath at 30 digits for the exponentials, the tan/sin rule for
the infinite well, integer root products for the basic polynomials) and
compared with what the program wrote. Oracles run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from fractions import Fraction

import mpmath

KINDS = ("right", "left", "symmetric")

SERIES_TOL = 1e-8
CLOSED_TOL = 1e-12
WAVE_TOL = 1e-9
POLY_TOL = 1e-12
SPECTRUM_TOL = 1e-12
MP_DIGITS = 30


class Tally:
    """Counts oracle checks. A failure with `gates=False` lowers ok_frac but not `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gating_failed = 0
        self.failures = []

    def check(self, ok: bool, what: str, gates: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.gating_failed += gates
            self.failures.append({"check": what, "gates": gates})
        return ok

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def exp_closed(kind: str, s: Fraction, m: int) -> mpmath.mpf:
    """Closed-form discrete exponential at k sigma = s, to MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        x = mpmath.mpf(s.numerator) / s.denominator
        if kind == "right":
            return (1 + x) ** m
        if kind == "left":
            return (1 - x) ** (-m)
        return (x + mpmath.sqrt(x * x + 1)) ** m


def rel_close(value, exact, tol: float) -> bool:
    if value is None or not math.isfinite(value):
        return False
    with mpmath.workdps(MP_DIGITS):
        return abs(mpmath.mpf(value) - exact) <= tol * abs(exact)


def series_cell_ok(value, status: str, exact) -> bool:
    """A series cell is right when its value matches and its status is not `diverged`.

    Every momentum the benchmark requests has |k sigma| < 1, so a `diverged`
    status is false whatever the value.
    """
    return status in ("exact_cutoff", "converged") and rel_close(value, exact, SERIES_TOL)


def check_exp(meta: dict, doc: dict, tally: Tally) -> None:
    s = Fraction(meta["k"]) * Fraction(meta["sigma"])
    lo, hi = meta["window"]
    cols = doc["data"]["tables"][0]["columns"]
    if not tally.check(cols.get("m") == list(range(lo, hi + 1)), f"exp window {lo}:{hi} rows"):
        return
    where = f"k={meta['k']} sigma={meta['sigma']}"
    for i, m in enumerate(cols["m"]):
        for kind in KINDS:
            exact = exp_closed(kind, s, m)
            closed = cols[f"{kind}_closed"][i]
            tally.check(
                rel_close(closed, exact, CLOSED_TOL),
                f"exp {kind} closed {where} m={m}: got {closed}",
            )
            value, status = cols[f"{kind}_series"][i], cols[f"{kind}_status"][i]
            tally.check(
                series_cell_ok(value, status, exact),
                f"exp {kind} series {where} m={m}: got {value} ({status}), "
                f"want {mpmath.nstr(exact, 17)}",
                gates=False,
            )


# ---------------------------------------------------------------------------
# infinite well and basic polynomial tables
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    names, body = rows[0], rows[1:]
    return {name: [row[j] for row in body] for j, name in enumerate(names)}


def _close(value: float, exact: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - exact) <= tol * max(1.0, abs(exact))


def check_well(meta: dict, outdir: str, tally: Tally) -> None:
    M, sigma, level = meta["points"], float(meta["sigma"]), meta["level"]
    spec = _read_csv(os.path.join(outdir, "well_spectrum.csv"))
    for kind in KINDS:
        rows = [i for i, c in enumerate(spec["correspondence"]) if c == kind]
        tally.check(len(rows) == M // 2, f"well {kind}: {len(rows)} levels for M={M}")
    for i, kind in enumerate(spec["correspondence"]):
        n = int(spec["n"][i])
        k, energy = float(spec["k"][i]), float(spec["energy"][i])
        theta = math.pi * n / M
        tally.check(int(spec["degenerate_with"][i]) == M - n, f"well {kind} n={n} partner")
        if kind != "symmetric" and 2 * n == M:
            pole = math.isinf(k) and spec["physical"][i] == "false"
            tally.check(pole, f"well {kind} n={n}: tan pole not flagged")
            continue
        want = (math.sin(theta) if kind == "symmetric" else math.tan(theta)) / sigma
        tally.check(
            abs(k - want) <= SPECTRUM_TOL * abs(want), f"well {kind} n={n}: k={k}, want {want}"
        )
        tally.check(
            abs(energy - want * want) <= SPECTRUM_TOL * want * want,
            f"well {kind} n={n}: energy={energy}",
        )
    theta = math.pi * level / M
    for kind in KINDS:
        wave = _read_csv(os.path.join(outdir, f"well_wavefunction_{kind}_n{level}.csv"))
        tally.check(len(wave["m"]) == M + 1, f"well {kind} wavefunction rows")
        sec = 1.0 / math.cos(theta)
        for m_text, psi_text in zip(wave["m"], wave["psi"]):
            m = int(m_text)
            want = math.sin(m * theta)
            if kind == "right":
                want *= sec**m
            elif kind == "left":
                want *= math.cos(theta) ** m
            tally.check(
                _close(float(psi_text), want, WAVE_TOL),
                f"well {kind} psi m={m}: got {psi_text}, want {want!r}",
            )


def roots(kind: str, n: int) -> list[int]:
    """Roots of B_n(x) in units of sigma: an integer progression per kind."""
    if kind == "right":
        return list(range(n))
    if kind == "left":
        return list(range(0, -n, -1))
    return [0] + list(range(n - 2, -n + 1, -2)) if n else []


def root_product(kind: str, n: int, m: int) -> int:
    """Basic polynomial at m*sigma divided by sigma^n."""
    out = 1
    for r in roots(kind, n):
        out *= m - r
    return out


def check_polys(meta: dict, outdir: str, tally: Tally) -> None:
    sigma = float(meta["sigma"])
    lo, hi = meta["window"]
    table = _read_csv(os.path.join(outdir, "polys.csv"))
    ms = [int(m) for m in table["m"]]
    if not tally.check(ms == list(range(lo, hi + 1)), f"polys window {lo}:{hi} rows"):
        return
    for n in meta["degrees"]:
        scale = sigma**n
        for kind in KINDS:
            for m, text in zip(ms, table[f"{kind}_n{n}"]):
                want = scale * root_product(kind, n, m)
                got = float(text)
                tally.check(
                    math.isfinite(got) and abs(got - want) <= POLY_TOL * abs(want),
                    f"polys {kind} n={n} m={m}: got {text}, want {want!r}",
                )


# ---------------------------------------------------------------------------
# exact algebra
# ---------------------------------------------------------------------------


def parse_sigma(text: str) -> Fraction:
    return Fraction(text) if "/" in text else Fraction(float(text))


def basic_value(kind: str, sigma: Fraction, n: int, x: Fraction) -> Fraction:
    """B_n(x) = sigma^n * prod (x/sigma - r) over the roots r of the kind."""
    out = Fraction(1)
    for r in roots(kind, n):
        out *= x - r * sigma
    return out


def check_algebra(meta: dict, doc: dict, tally: Tally) -> None:
    tally.check(doc.get("cache_size_at_start") in (0, None), "algebra process started with a warm cache")
    results = {(r["sigma"], r["kind"]): r for r in doc["results"]}
    point = Fraction(meta["point"])
    for sigma_text, degree in meta["sigmas"]:
        sigma = parse_sigma(sigma_text)
        for kind in KINDS:
            r = results.get((sigma_text, kind))
            where = f"sigma={sigma_text} {kind}"
            if not tally.check(r is not None and r["degree"] == degree, f"algebra {where} missing"):
                continue
            tally.check(r["commutator_zero"] is True, f"algebra {where}: [delta, xi] != 1")
            for n, ok in enumerate(r["lowering"], 1):
                tally.check(ok is True, f"algebra {where} n={n}: delta B_n != n B_(n-1)")
            for n, row in enumerate(r["lattice_equal"]):
                for m, ok in zip(meta["lattice_ms"], row):
                    tally.check(ok is True, f"algebra {where} n={n} m={m}: B_n(m sigma) != closed form")
            for n, text in enumerate(r["values_at_point"]):
                tally.check(
                    Fraction(text) == basic_value(kind, sigma, n, point),
                    f"algebra {where} n={n}: B_n({point}) != root product",
                )


def check_job(job: dict, outdir: str, tally: Tally) -> None:
    """Run the oracle that matches a job's outputs; unreadable output fails one check."""
    command = "algebra" if job["kind"] == "algebra" else job["argv"][0]
    try:
        if job["kind"] == "algebra":
            with open(os.path.join(outdir, job["outputs"][0]), encoding="utf-8") as handle:
                check_algebra(job["meta"], json.load(handle), tally)
        elif command == "exp":
            with open(os.path.join(outdir, job["outputs"][0]), encoding="utf-8") as handle:
                check_exp(job["meta"], json.load(handle), tally)
        elif command == "well":
            check_well(job["meta"], outdir, tally)
        elif command == "polys":
            check_polys(job["meta"], outdir, tally)
        else:
            raise ValueError(f"no oracle for {command}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        tally.check(False, f"{command} output unreadable: {exc!r}")


def check_series_calls(calls: list, tally: Tally) -> None:
    """Oracle on the (kind, k sigma, m, value, status) records of traced series calls."""
    for kind, s, m, value, status in calls:
        exact = exp_closed(kind, Fraction(s), m)
        tally.check(series_cell_ok(value, status, exact), f"{kind} k sigma={s} m={m}: got {value} ({status})")


def main(argv: list) -> int:
    """`oracles.py JOBS_JSON WORKDIR OUT_JSON [TRACE_SUMMARY_JSON]`: writes the tallies."""
    jobs_path, workdir, out_path, *summary = argv
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tally, series = Tally(), Tally()
    for job in jobs:
        check_job(job, workdir, tally)
    if summary:
        with open(summary[0], encoding="utf-8") as handle:
            check_series_calls(json.load(handle)["series_calls"], series)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"outputs": vars(tally), "series_calls": vars(series)}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
