"""The invariants the umbral discretization keeps, each written once.

Each check takes the sizes it runs at and returns None or a detail naming the
first failing case: `umbralqm check` runs them at the sizes of `cli_checks`,
the acceptance tests at larger sizes. Bounds are written `not err <= bound`,
so a NaN fails them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import product

from .correspondences import basic_polynomial, basic_polynomial_value, exponential_series_column
from .correspondences import zeros_of_basic_polynomial
from .functions import minimum_wavelength_points, momentum_to_wavelength, umbral_exp_column, wavelength_to_momentum
from .operators import Correspondence, DeltaOperator, Kind, apply_delta, commutator_residual
from .schrodinger import PhysicalUnits, PlaneWaveState, apply_hamiltonian, energy_bounds, well_state_count

EXACT_SIGMAS = (1, Fraction(1, 3))


def product_value(kind: Kind, n: int, m: int, sigma):
    """Independent oracle: the basic value at m as its factor product; float iff sigma is."""
    x = m * sigma
    if kind is Kind.RIGHT:
        factors = [x - i * sigma for i in range(n)]
    elif kind is Kind.LEFT:
        factors = [x + i * sigma for i in range(n)]
    else:
        factors = [x, *(x + (2 * i - (n - 2)) * sigma for i in range(n - 1))] if n else []
    return math.prod(factors, start=1.0 if isinstance(sigma, float) else 1)


def heisenberg(degree: int, sigmas):
    """[delta, xi] = 1 exactly on every polynomial up to the degree."""
    for kind, sigma in product(Kind, sigmas):
        if commutator_residual(Correspondence(kind, sigma), degree) != 0:
            return f"nonzero commutator residual for {kind.value}, sigma={sigma}"
    return None


def lowering(degree: int, sigmas):
    """delta p_n = n p_(n-1) exactly for 1 <= n <= degree."""
    for kind, sigma in product(Kind, sigmas):
        c = Correspondence(kind, sigma)
        d = DeltaOperator.for_correspondence(c)
        for n in range(1, degree + 1):
            if apply_delta(d, basic_polynomial(c, n)) != n * basic_polynomial(c, n - 1):
                return f"lowering failed for {kind.value}, sigma={sigma}, n={n}"
    return None


def closed_vs_product(degree: int, window: int, sigmas):
    """Closed forms equal the factor products, floats to 1e-12; n <= degree, |m| <= window."""
    for kind, sigma, n, m in product(Kind, sigmas, range(degree + 1), range(-window, window + 1)):
        c = Correspondence(kind, sigma)
        oracle = product_value(kind, n, m, sigma)
        rel = 1e-12 if isinstance(sigma, float) else 0
        if not abs(basic_polynomial_value(c, n, m) - oracle) <= rel * abs(oracle):
            return f"value mismatch at {kind.value}, sigma={sigma}, n={n}, m={m}"
    return None


def exp_series(momenta, window: int):
    """Series sums (tol 1e-12) equal the closed forms to 1e-10 relative, sigma 1, |m| <= window."""
    ms = range(-window, window + 1)
    for kind, ks in product(Kind, momenta):
        c = Correspondence(kind, 1)
        cells = zip(ms, umbral_exp_column(c, ks, ms), exponential_series_column(c, ks, ms, 1e-12))
        for m, closed, (summed, _) in cells:
            if not abs(summed - closed) <= 1e-10 * abs(closed):
                return f"series mismatch at {kind.value}, k sigma={ks}, m={m}"
    return None


def _close(value: float, want: float, rel: float) -> bool:
    """value is want (inf past the double range) or within rel of it."""
    return value == want or abs(value - want) <= rel * want


def waves(sigma: float, offsets):
    """k sigma = 1 is the minimal wave of lmin points; lmin + each offset round-trips via its momentum.

    The minimal wave is taken at a double k with k * sigma == 1 exactly, 1/sigma
    or a neighbour: near k sigma = 1 the symmetric wavelength moves by 1e-8 per
    ulp of k sigma. At the few sigmas with no such k only the round trips run.
    """
    k = 1 / sigma
    unit = next((x for x in (k, math.nextafter(k, 0), math.nextafter(k, math.inf)) if x * sigma == 1), None)
    for kind in Kind:
        c = Correspondence(kind, sigma)
        lmin = minimum_wavelength_points(c)
        if unit is not None and not _close(momentum_to_wavelength(c, unit), lmin * sigma, 1e-15):
            return f"minimal wave mismatch for {kind.value}"
        for l in (lmin + d for d in offsets):
            k = wavelength_to_momentum(c, l)
            if not _close(momentum_to_wavelength(c, k), l * sigma, 1e-10):
                return f"wavelength round trip failed for {kind.value}, l={l}"
    return None


def eigencheck(momenta, potentials, window: int):
    """H = -delta^2 + V0 maps e(ik) + 0.25j e(-ik) to (k^2 + V0) times itself, sigma 1.

    Each residual on |m| <= window is within 1e-10 of max(1, |E psi(m)|), the
    largest also within 1e-10 of max |psi|.
    """
    for kind, k, v0 in product(Kind, momenta, potentials):
        c = Correspondence(kind, 1.0)
        psi = PlaneWaveState(c, k, 1.0, 0.25j).tabulate((-window, window))
        out = apply_hamiltonian(c, v0, psi)
        want = {m: (k**2 + v0) * psi.value(m) for m in out.indices()}
        resid = {m: abs(out.value(m) - w) for m, w in want.items()}
        bad = [m for m, r in resid.items() if not r <= 1e-10 * max(1.0, abs(want[m]))]
        if bad or not max(resid.values()) <= 1e-10 * max(psi.moduli()):
            where = f"m={bad[0]}" if bad else "sup norm"
            return f"plane-wave eigencheck failed for {kind.value}, k={k}, V0={v0}, {where}"
    return None


def well_counts():
    """(total, physical, convergent) levels of the 8-point well."""
    for kind, counts in ((Kind.RIGHT, (4, 3, 1)), (Kind.SYMMETRIC, (4, 4, 4))):
        if well_state_count(Correspondence(kind, 1), 8) != counts:
            return f"{kind.value} well counts changed"
    return None


def bound_targets():
    """Electron energy ceilings at Planck spacing: 1.22e28 eV (1%) and 1.46e50 eV (2%)."""
    b = energy_bounds(PhysicalUnits())
    if not abs(b.e_max_time_ev - 1.22e28) <= 0.01 * 1.22e28:
        return "time bound off target"
    if not abs(b.e_max_space_ev - 1.46e50) <= 0.02 * 1.46e50:
        return "electron space bound off target"
    return None


def zero_pattern():
    """The symmetric cubic vanishes at m = -1, 0, 1."""
    if zeros_of_basic_polynomial(Correspondence(Kind.SYMMETRIC, 1), 3) != [-1, 0, 1]:
        return "symmetric zero pattern changed"
    return None


def cli_checks(sigma: float) -> list:
    """(name, check) pairs of `umbralqm check`; the wave check runs at the configured sigma.

    Its offsets round-trip lengths 12 and 48 for every kind (right/left minimum 8, symmetric 4).
    """
    return [
        ("heisenberg identity (degree 16, sigma 1 and 1/3)", partial(heisenberg, 16, EXACT_SIGMAS)),
        ("basic sequence lowering (degree 16)", partial(lowering, 16, (Fraction(1, 3),))),
        ("closed form vs direct product", partial(closed_vs_product, 12, 12, (0.5,))),
        ("exponential series vs closed form", partial(exp_series, (-0.5, 0.5, 0.9), 10)),
        ("wavelength round trips and minimal waves", partial(waves, sigma, (4.0, 8.0, 40.0, 44.0))),
        ("constant-potential plane-wave eigencheck", partial(eigencheck, (0.5,), (2.0,), 8)),
        ("well state counts", well_counts),
        ("energy bound targets", bound_targets),
        ("symmetric zero pattern", zero_pattern),
    ]
