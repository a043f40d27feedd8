"""Discrete time-separated Schrodinger problems.

Plane-wave eigenstates under a constant potential, the two lattice energy
bounds, and the infinite-well spectra with the tan (right/left) and sin
(symmetric) quantization rules. Spectra use natural units hbar = 1, 2m = 1,
so E = k^2; `PhysicalUnits` converts to eV where laboratory numbers are
wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .correspondences import _to_float
from .functions import DiscreteFunction, DomainError, _power, lattice_dispersion, umbral_exp_column, umbral_trig_column
from .operators import Correspondence, DeltaOperator, Kind

HBAR_JS = 1.054571817e-34  # CODATA 2018
EV_J = 1.602176634e-19  # exact
ELECTRON_MASS_KG = 9.1093837015e-31
PROTON_MASS_KG = 1.67262192369e-27
PLANCK_LENGTH_M = 1.62e-35
PLANCK_TIME_S = 5.39e-44

# Momenta within one part in 1e12 of the k*sigma = 1 boundary count as
# boundary waves: the tan rule lands there only through rounding
# (tan(pi/4) != 1 in doubles) and must not be classified as convergent.
_BOUNDARY_EPS = 1e-12


class WindowTooSmallError(ValueError):
    """The sample window cannot absorb the stencil of the requested operator."""


class NonPhysicalStateError(ValueError):
    """The requested well level sits on the tan pole (infinite energy)."""


@dataclass(frozen=True)
class PhysicalUnits:
    """Laboratory constants for converting lattice results to eV."""

    hbar: float = HBAR_JS
    mass: float = ELECTRON_MASS_KG
    sigma_m: float = PLANCK_LENGTH_M
    tau_s: float = PLANCK_TIME_S

    def __post_init__(self):
        for name in ("hbar", "mass", "sigma_m", "tau_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class EnergyBounds:
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
    if tau <= 0:
        raise ValueError("tau must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if abs(E) * tau >= 1:
        raise DomainError("time evolution requires |E tau| < 1")
    c = Correspondence(kind, tau)
    return DiscreteFunction(tau, 0, list(umbral_exp_column(c, complex(0.0, E), range(n_steps + 1))))


@dataclass(frozen=True)
class PlaneWaveState:
    """A e(+ik) + B e(-ik) (oscillatory) or A e(+k) + B e(-k) (evanescent)."""

    correspondence: Correspondence
    k: float
    amplitude_forward: complex = 1.0
    amplitude_backward: complex = 0.0
    oscillatory: bool = True

    def __post_init__(self):
        if self.amplitude_forward == 0 and self.amplitude_backward == 0:
            raise ValueError("at least one amplitude must be nonzero")

    def _samples(self, ms) -> list:
        """The state at each int m of the sequence ms, from the e(+-ik) or e(+-k) columns."""
        c = self.correspondence
        kk = complex(0.0, self.k) if self.oscillatory else complex(self.k)
        forward, backward = umbral_exp_column(c, kk, ms), umbral_exp_column(c, -kk, ms)
        return [self.amplitude_forward * f + self.amplitude_backward * b for f, b in zip(forward, backward)]

    def sample(self, m: int) -> complex:
        return self._samples((int(m),))[0]

    def tabulate(self, window: tuple[int, int]) -> DiscreteFunction:
        lo, hi = window
        return DiscreteFunction(self.correspondence.sigma_float(), lo, self._samples(range(lo, hi + 1)))


def lattice_delta(c: Correspondence, f: DiscreteFunction) -> DiscreteFunction:
    """Apply the difference operator to lattice samples; the window shrinks by the stencil.

    Every correspondence's delta is (T^hi - T^lo)/(N sigma) (`DeltaOperator`),
    so the value at m is (f(m + hi) - f(m + lo))/(N sigma) on the points where
    both samples exist.
    """
    s = c.sigma_float()
    if not abs(f.sigma - s) <= 1e-12 * s:
        raise ValueError("sample spacing does not match the correspondence")
    d = DeltaOperator.for_correspondence(c)
    lo, hi = min(d.terms), max(d.terms)
    if len(f.values) <= hi - lo:
        raise WindowTooSmallError("window too small for one difference step")
    step = d.normalizer * s
    values = [(a - b) / step for a, b in zip(f.values[hi - lo :], f.values)]
    return DiscreteFunction(f.sigma, f.m_min - lo, values)


def apply_hamiltonian(c: Correspondence, V0: float, psi: DiscreteFunction) -> DiscreteFunction:
    """Apply H = -delta^2 + V0 to the samples; result lives on the interior window."""
    second = lattice_delta(c, lattice_delta(c, psi))
    inner = psi.values[second.m_min - psi.m_min :]
    values = [-d2 + V0 * v for d2, v in zip(second.values, inner)]
    return DiscreteFunction(psi.sigma, second.m_min, values)


@dataclass(frozen=True)
class WellLevel:
    n: int
    momentum: float
    energy: float
    physical: bool
    convergent: bool


@dataclass(frozen=True)
class WellSpectrum:
    """Quantized levels of the infinite well with M lattice points (L = M sigma).

    One column per WellLevel field over the levels n = 1..M//2; `levels`
    reads them as rows.
    """

    kind: Kind
    M: int
    sigma: float
    momentum: tuple[float, ...]
    energy: tuple[float, ...]
    physical: tuple[bool, ...]
    convergent: tuple[bool, ...]

    @property
    def n(self) -> range:
        return range(1, len(self.energy) + 1)

    @cached_property
    def levels(self) -> tuple[WellLevel, ...]:
        return tuple(map(WellLevel, self.n, self.momentum, self.energy, self.physical, self.convergent))

    @property
    def degeneracy_pairs(self) -> list[tuple[int, int]]:
        return [(n, self.M - n) for n in self.n]

    def energy_of(self, n: int) -> float:
        """Energy of level n for 1 <= n <= M-1, folded onto min(n, M-n).

        Level M-n has level n's energy. For right/left it is the same state,
        psi_(M-n) = -psi_n; for symmetric it is the lattice doubler
        (-1)^(m+1) psi_n, which infinite_well_wavefunction does not return yet.
        """
        if not 1 <= n <= self.M - 1:
            raise ValueError("n must lie in [1, M-1]")
        folded = min(n, self.M - n)
        return self.energy[folded - 1]


def _tan_pole_level(kind: Kind, M: int):
    """The level at theta = pi/2, where tan has its pole: n = M/2 for right/left and even M."""
    return M // 2 if kind is not Kind.SYMMETRIC and M % 2 == 0 else None


def infinite_well_spectrum(c: Correspondence, M: int) -> WellSpectrum:
    """All floor(M/2) candidate levels under the correspondence's quantum rule.

    Right/left: k_n = tan(pi n / M)/sigma, with the n = M/2 state flagged
    non-physical (tan pole). Symmetric: k_n = sin(pi n / M)/sigma, always
    bounded by 1/sigma; the k sigma = 1 boundary state counts as convergent
    because its closed form is defined.
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    s = c.sigma_float()
    (rule, _), pole = lattice_dispersion(c.kind), _tan_pole_level(c.kind, M)
    ns = range(1, M // 2 + 1)
    ks = [math.inf if n == pole else rule(math.pi * n / M) for n in ns]  # the pole level: inf, inf
    momentum = tuple(k / s for k in ks)
    if c.kind is Kind.SYMMETRIC:
        convergent = (True,) * len(ns)
    else:
        convergent = tuple(k < 1.0 - _BOUNDARY_EPS for k in ks)
    physical = tuple(n != pole for n in ns)
    return WellSpectrum(c.kind, M, s, momentum, tuple(_power(k, 2) for k in momentum), physical, convergent)


def well_momentum(c: Correspondence, M: int, n: int) -> float:
    """Quantized momentum of level n (1 <= n <= M-1) under the correspondence's rule."""
    if not 1 <= n <= M - 1:
        raise ValueError("n must lie in [1, M-1]")
    if n == _tan_pole_level(c.kind, M):
        raise NonPhysicalStateError(f"level n={n} of M={M} sits on the tan pole")
    return lattice_dispersion(c.kind)[0](math.pi * n / M) / c.sigma_float()


def infinite_well_wavefunction(c: Correspondence, M: int, n: int) -> DiscreteFunction:
    """Discrete sine eigenfunction of level n on the well of M points, sampled on m = 0..M.

    Raises NonPhysicalStateError on the right/left tan pole (n = M/2) and
    DomainError for levels whose momentum exceeds the convergence boundary
    |k sigma| = 1 (these exist formally but have no convergent series).
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    psi = umbral_trig_column(c, well_momentum(c, M, n), range(M + 1), "sin")
    return DiscreteFunction(c.sigma_float(), 0, list(psi))


def well_state_count(c: Correspondence, M: int) -> tuple[int, int, int]:
    """(total, physical, convergent) level counts of the M-point well."""
    spectrum = infinite_well_spectrum(c, M)
    return len(spectrum.energy), sum(spectrum.physical), sum(spectrum.convergent)


def infinite_well_max_energy_log10(u: PhysicalUnits, M: int) -> float:
    """log10 of the top tan-rule well energy in eV, assembled in log space.

    The top state n = (M-1)/2 sits next to the tan pole; its momentum is
    cot(pi/(2M))/sigma, evaluated through the complement so the result stays
    accurate for lattice counts far beyond double resolution of pi/2.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    cot = 1.0 / math.tan(math.pi / (2 * M))
    return math.log10(energy_scale_ev(u)) + 2 * math.log10(cot)
