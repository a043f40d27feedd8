"""Discrete time-separated Schrodinger problems.

Plane-wave eigenstates under a constant potential, the two lattice energy
bounds, and the infinite-well spectra with the tan (right/left) and sin
(symmetric) quantization rules. Spectra use natural units hbar = 1, 2m = 1,
so E = k^2; `PhysicalUnits` converts to eV where laboratory numbers are
wanted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, index
from typing import NamedTuple

from .correspondences import _blocks, _to_float
from .functions import DiscreteFunction, DomainError, _power_pass, lattice_dispersion, umbral_exp_column
from .operators import Correspondence, DeltaOperator, Kind

HBAR_JS = 1.054571817e-34  # CODATA 2018
EV_J = 1.602176634e-19  # exact
ELECTRON_MASS_KG = 9.1093837015e-31
PROTON_MASS_KG = 1.67262192369e-27
PLANCK_LENGTH_M = 1.62e-35
PLANCK_TIME_S = 5.39e-44


class WindowTooSmallError(ValueError):
    """The sample window cannot absorb the stencil of the requested operator."""


class NonPhysicalStateError(ValueError):
    """The requested well level sits on the tan pole (infinite energy)."""


class PhysicalUnits:
    """Laboratory constants for converting lattice results to eV."""

    def __init__(
        self,
        hbar: float = HBAR_JS,
        mass: float = ELECTRON_MASS_KG,
        sigma_m: float = PLANCK_LENGTH_M,
        tau_s: float = PLANCK_TIME_S,
    ):
        self.hbar, self.mass, self.sigma_m, self.tau_s = hbar, mass, sigma_m, tau_s
        for name in ("hbar", "mass", "sigma_m", "tau_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


class EnergyBounds(NamedTuple):
    """The two lattice energy ceilings, in eV."""

    e_max_time_ev: float
    e_max_space_ev: float

    @property
    def binding_ev(self) -> float:
        return min(self.e_max_time_ev, self.e_max_space_ev)


def _rounded(formula, exact: Fraction) -> float:
    """formula(), a float evaluation of exact, where it is within 1e-15 relative; else exact rounded once.

    A step of the formula that leaves the normal double range moves its value
    off or raises; the exact quotient then rounds to inf, a subnormal or 0.
    """
    rounded = _to_float(exact.numerator, exact.denominator)
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        return rounded
    return value if abs(value - rounded) <= 1e-15 * rounded < math.inf else rounded


def energy_scale_ev(u: PhysicalUnits) -> float:
    """eV value of one unit of (k sigma)^2, i.e. hbar^2/(2 m sigma^2)."""
    exact = Fraction(u.hbar) ** 2 / (2 * Fraction(u.mass) * Fraction(u.sigma_m) ** 2 * Fraction(EV_J))
    return _rounded(lambda: u.hbar**2 / (2 * u.mass * u.sigma_m**2) / EV_J, exact)


def energy_bounds(u: PhysicalUnits) -> EnergyBounds:
    """Upper energy limits from the convergence of the time and space waves."""
    exact = Fraction(u.hbar) / (Fraction(u.tau_s) * Fraction(EV_J))
    return EnergyBounds(_rounded(lambda: u.hbar / u.tau_s / EV_J, exact), energy_scale_ev(u))


def separate(
    E: float, tau: float, n_steps: int, kind: Kind = Kind.SYMMETRIC
) -> DiscreteFunction:
    """Time factor of the separated solution sampled on t = n*tau, n = 0..n_steps.

    The continuous factor exp(i E t) discretizes to the chosen
    correspondence's exponential at imaginary momentum; |E tau| < 1 is the
    temporal convergence bound. The symmetric evolution is unimodular.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if not abs(E) * tau < 1:
        raise DomainError("time evolution requires |E tau| < 1")
    c = Correspondence(kind, tau)
    return DiscreteFunction(tau, 0, list(umbral_exp_column(c, complex(0.0, E), range(n_steps + 1))))


class PlaneWaveState:
    """A e(+ik) + B e(-ik) (oscillatory) or A e(+k) + B e(-k) (evanescent)."""

    def __init__(
        self,
        correspondence: Correspondence,
        k: float,
        amplitude_forward: complex = 1.0,
        amplitude_backward: complex = 0.0,
        oscillatory: bool = True,
    ):
        if amplitude_forward == 0 and amplitude_backward == 0:
            raise ValueError("at least one amplitude must be nonzero")
        self.correspondence, self.k, self.oscillatory = correspondence, k, oscillatory
        self.amplitude_forward, self.amplitude_backward = amplitude_forward, amplitude_backward

    def _samples(self, ms) -> list:
        """The state at each int m of the iterable ms, from the e(+-ik) or e(+-k) columns block by block."""
        c, a, b = self.correspondence, self.amplitude_forward, self.amplitude_backward
        kk = complex(0.0, self.k) if self.oscillatory else complex(self.k)
        pairs = ((umbral_exp_column(c, kk, block), umbral_exp_column(c, -kk, block)) for block in _blocks(ms))
        return [a * f + b * g for forward, backward in pairs for f, g in zip(forward, backward)]

    def sample(self, m: int) -> complex:
        return self._samples((index(m),))[0]

    def tabulate(self, window: tuple[int, int]) -> DiscreteFunction:
        lo, hi = window
        return DiscreteFunction(self.correspondence.sigma_float(), lo, self._samples(range(lo, hi + 1)))


def lattice_delta(c: Correspondence, f: DiscreteFunction) -> DiscreteFunction:
    """Apply the difference operator to lattice samples; the window shrinks by the stencil.

    Every correspondence's delta is (T^hi - T^lo)/(N sigma) (`DeltaOperator`),
    so the value at m is (f(m + hi) - f(m + lo))/(N sigma) on the points where
    both samples exist. N sigma is in sigma's own number: a float sigma keeps
    float and complex samples to their float bits, and an exact sigma keeps
    exact samples exact.
    """
    s = c.sigma_float()
    if not abs(f.sigma - s) <= 1e-12 * s:
        raise ValueError("sample spacing does not match the correspondence")
    d = DeltaOperator.for_correspondence(c)
    lo, hi = min(d.terms), max(d.terms)
    if len(f.values) <= hi - lo:
        raise WindowTooSmallError("window too small for one difference step")
    step = d.normalizer * (c.sigma if isinstance(c.sigma, float) else c.sigma_exact())
    values = [(a - b) / step for a, b in zip(f.values[hi - lo :], f.values)]
    return DiscreteFunction(f.sigma, f.m_min - lo, values)


def apply_hamiltonian(c: Correspondence, V0: float, psi: DiscreteFunction) -> DiscreteFunction:
    """Apply H = -delta^2 + V0 to the samples; result lives on the interior window."""
    second = lattice_delta(c, lattice_delta(c, psi))
    inner = psi.values[second.m_min - psi.m_min :]
    values = [-d2 + V0 * v for d2, v in zip(second.values, inner)]
    return DiscreteFunction(psi.sigma, second.m_min, values)


class WellLevel(NamedTuple):
    n: int
    momentum: float
    energy: float
    physical: bool
    convergent: bool


class WellSpectrum(NamedTuple):
    """Quantized levels n of the infinite well with M lattice points (L = M sigma), built by _well_levels.

    One column per WellLevel field over the level range n: every level 1..M//2 from
    infinite_well_spectrum, one from well_momentum, a chunk of them from the CLI.
    `levels` reads the columns as rows, computed on each access.
    """

    kind: Kind
    M: int
    sigma: float
    n: range
    momentum: tuple[float, ...]
    energy: tuple[float, ...]
    physical: tuple[bool, ...]
    convergent: tuple[bool, ...]

    @property
    def levels(self) -> tuple[WellLevel, ...]:
        return tuple(map(WellLevel, self.n, self.momentum, self.energy, self.physical, self.convergent))

    @property
    def degeneracy_pairs(self) -> list[tuple[int, int]]:
        return [(n, self.M - n) for n in self.n]

    def energy_of(self, n: int) -> float:
        """Energy of level n for 1 <= n <= M-1, folded onto min(n, M-n), which the record must hold.

        Level M-n has level n's energy. For right/left it is the same state,
        psi_(M-n) = -psi_n; for symmetric it is the lattice doubler
        (-1)^(m+1) psi_n, which infinite_well_wavefunction does not return yet.
        """
        if not 1 <= n <= self.M - 1:
            raise ValueError("n must lie in [1, M-1]")
        return self.energy[self.n.index(min(n, self.M - n))]


def _level_classes(kind: Kind, M: int, ns):
    """The class of each level n of ns, lazily, from the integers: level n's phase per point is pi n/M.

    Every symmetric level (k sigma = sin <= 1) is "convergent". Right/left compare |tan| with 1 through
    q = 4 min(n, M-n) against M: "convergent" below, "boundary" (minimal wave) at q = M, "pole" at 2M, else "beyond".
    """
    symmetric = kind is Kind.SYMMETRIC
    for n in ns:
        q = 0 if symmetric else 4 * (n if 2 * n < M else M - n)
        yield "convergent" if q < M else "boundary" if q == M else "pole" if q == 2 * M else "beyond"


def _well_levels(c: Correspondence, M: int, ns: range) -> WellSpectrum:
    """The well spectrum over the level range ns of the M >= 2 point well: its one builder.

    k_n = tan(pi n/M)/sigma (right/left) or sin(pi n/M)/sigma (symmetric). The flags are _level_classes':
    the right/left pole n = M/2 is non-physical (momentum inf), and the k sigma = 1 boundary counts as
    convergent only for symmetric, whose closed form is defined.
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    s, rule = c.sigma_float(), lattice_dispersion(c.kind)[0]
    classes = list(_level_classes(c.kind, M, ns))
    momentum = tuple(math.inf if cls == "pole" else rule(math.pi * n / M) / s for n, cls in zip(ns, classes))
    energy = tuple(_power_pass(momentum, (2,) * len(momentum)))
    physical, convergent = tuple(cls != "pole" for cls in classes), tuple(cls == "convergent" for cls in classes)
    return WellSpectrum(c.kind, M, s, ns, momentum, energy, physical, convergent)


def infinite_well_spectrum(c: Correspondence, M: int) -> WellSpectrum:
    """All floor(M/2) candidate levels: _well_levels over every level n = 1..M//2."""
    return _well_levels(c, M, range(1, M // 2 + 1))


def well_momentum(c: Correspondence, M: int, n: int) -> float:
    """Quantized momentum of level n (1 <= n <= M-1): the momentum of _well_levels over that one level.

    Raises ValueError for M < 2, then for n outside [1, M-1], then NonPhysicalStateError on the tan pole.
    """
    level = _well_levels(c, M, range(n, n + 1) if 1 <= n <= M - 1 else range(0))
    if not level.n:
        raise ValueError("n must lie in [1, M-1]")
    if not level.physical[0]:
        raise NonPhysicalStateError(f"level n={n} of M={M} sits on the tan pole")
    return level.momentum[0]


def _well_column(c: Correspondence, M: int, n: int):
    """After the level's checks, the function from points m to infinite_well_wavefunction's samples there, lazily.

    A sample is the imaginary part of e(ik) at m.
    """
    k = well_momentum(c, M, n)
    if next(_level_classes(c.kind, M, (n,))) == "beyond":
        raise DomainError(f"level n={n} of M={M} lies beyond the k sigma = 1 convergence boundary")
    return lambda ms: map(attrgetter("imag"), umbral_exp_column(c, complex(0.0, k), ms))


def infinite_well_wavefunction(c: Correspondence, M: int, n: int) -> DiscreteFunction:
    """Discrete sine eigenfunction of level n on the well of M points, sampled on m = 0..M.

    Raises NonPhysicalStateError on the tan pole and DomainError past the k sigma = 1 boundary (_level_classes).
    """
    return DiscreteFunction(c.sigma_float(), 0, list(_well_column(c, M, n)(range(M + 1))))


def well_state_count(c: Correspondence, M: int) -> tuple[int, int, int]:
    """(total, physical, convergent) level counts of the M-point well."""
    spectrum = infinite_well_spectrum(c, M)
    return len(spectrum.energy), sum(spectrum.physical), sum(spectrum.convergent)


def infinite_well_max_energy_log10(u: PhysicalUnits, M: int) -> float:
    """log10 of the top tan-rule well energy in eV, assembled in log space.

    The top physical level n is (M - 1)//2, as the right/left pole is n = M/2 of an even M. Its
    momentum, cot(pi (M - 2n)/(2M))/sigma, is evaluated through the complement so the result stays
    accurate for lattice counts far beyond double resolution of pi/2.
    """
    M = index(M)
    if M < 3:
        raise ValueError("M must be >= 3")
    top = (M - 1) // 2
    return math.log10(energy_scale_ev(u)) + 2 * math.log10(1.0 / math.tan(math.pi * (M - 2 * top) / (2 * M)))
