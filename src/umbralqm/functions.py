"""Discrete exponential, trigonometric and hyperbolic functions.

Closed forms for the three correspondences, the series route for
cross-checking them, and the wave bookkeeping: momentum/wavelength relations,
minimal waves, and the amplitude growth factor of the non-periodic
right/left waves.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .correspondences import SummationStatus, exponential_series_exact
from .correspondences import _closed_base, _momentum_ratio, _series_status, _signed_exp
from .operators import Correspondence, Kind


class DomainError(ValueError):
    """The requested point lies outside the convergence domain of the function."""


_MIN_POINTS = {Kind.RIGHT: 8.0, Kind.LEFT: 8.0, Kind.SYMMETRIC: 4.0}

_TRIG_NAMES = ("sin", "cos", "sinh", "cosh")


def lattice_dispersion(kind: Kind):
    """(rule, inverse): the rule gives k sigma of the wave advancing theta radians per point.

    Symmetric: sin(theta); right/left: tan(theta). theta = pi/4 (right/left)
    and pi/2 (symmetric) give the k sigma = 1 minimal waves of _MIN_POINTS.
    """
    return (math.sin, math.asin) if kind is Kind.SYMMETRIC else (math.tan, math.atan)


def minimum_wavelength_points(c: Correspondence) -> float:
    """Points per wavelength of the shortest representable wave (k*sigma = 1)."""
    return _MIN_POINTS[c.kind]


def _power(x: float, n) -> float:
    """x**n for a real x; past the double range the inf of the power's sign."""
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def umbral_exp(c: Correspondence, k, m: int):
    """Closed-form discrete exponential at lattice index m.

    Right: (1 + k sigma)^m, Left: (1 - k sigma)^(-m),
    Symmetric: (k sigma + sqrt((k sigma)^2 + 1))^m with the principal root.
    A value past the double range is its correctly signed inf; a complex
    power that overflows gives each part as r cos(phi) or r sin(phi) from
    log r and phi, so a part within the range stays finite. An imaginary base
    i b (symmetric, k sigma = iy with |y| > 1) whose power leaves the normal
    range is i^n b^n, exact in its zero part.
    """
    m = int(m)
    base, s = _closed_base(c.kind, k * c.sigma_float())
    expo = s * m
    if base == 0:
        if expo < 0:
            raise DomainError("closed form is 0 raised to a negative power")
        return 1.0 if expo == 0 else 0.0
    if not isinstance(base, complex):
        return _power(base, expo)
    try:
        z = base**expo
        # a finite power of an imaginary base below the normal range may be an intermediate's 1/inf
        if cmath.isfinite(z) and not (base.real == 0 and abs(z) < sys.float_info.min):
            return z
    except (OverflowError, ZeroDivisionError):
        pass
    if base.real == 0:
        b = _power(base.imag, expo)
        return (complex(b, 0.0), complex(0.0, b), complex(-b, 0.0), complex(0.0, -b))[expo % 4]
    log_r, phi = expo * math.log(abs(base)), expo * cmath.phase(base)
    parts = (math.cos(phi), math.sin(phi))
    return complex(*(_signed_exp(t, log_r + math.log(abs(t))) if t else t for t in parts))


def umbral_exp_series(
    c: Correspondence, k, m: int, tol: float = 1e-12
) -> tuple[complex, SummationStatus]:
    """Discrete exponential summed from the series k^n/n! times the basic values.

    The exact engine survives the catastrophic cancellation of the
    alternating branches. A float k or sigma is read as its shortest decimal,
    so 0.2 sums as 1/5; a complex k with a nonzero imaginary part sums in
    Gaussian integers and gives a complex.
    """
    return exponential_series_exact(c, k, m, tol)


def closed_form_status(c: Correspondence, k, m: int) -> SummationStatus:
    """Status the series route reports at m whenever its term count fits the budget."""
    return _series_status(c.kind, *_momentum_ratio(k, c.sigma), int(m))


def umbral_trig(c: Correspondence, k: float, m: int, which: str) -> float:
    """Discrete sin/cos/sinh/cosh built from the discrete exponential.

    sin and cos admit |k sigma| <= 1 (the boundary is the minimal wave) and
    are the imaginary and real parts of e(ik), since e(-ik) is its conjugate.
    sinh and cosh require |k sigma| < 1; where one of e(k), e(-k) is past the
    double range the other is at most 1, so the value is the half of the
    large one, rounded once from its log.
    """
    if which not in _TRIG_NAMES:
        raise ValueError(f"which must be one of {_TRIG_NAMES}")
    k = float(k)
    ks = abs(k) * c.sigma_float()
    if which in ("sin", "cos"):
        if ks > 1.0:
            raise DomainError("sin/cos require |k sigma| <= 1")
        z = umbral_exp(c, complex(0.0, k), m)
        return z.imag if which == "sin" else z.real
    if ks >= 1.0:
        raise DomainError("sinh/cosh require |k sigma| < 1")
    ep = umbral_exp(c, k, m)
    em = umbral_exp(c, -k, m)
    value = (ep - em) / 2 if which == "sinh" else (ep + em) / 2
    if math.isinf(value):
        big = k if math.isinf(ep) else -k
        base, s = _closed_base(c.kind, big * c.sigma_float())
        sign = -1.0 if which == "sinh" and big != k else 1.0
        value = _signed_exp(sign, s * int(m) * math.log(base) - math.log(2))
    return value


def wavelength_to_momentum(c: Correspondence, l: float) -> float:
    """Momentum of the wave with l lattice points per wavelength.

    Symmetric: k = sin(2 pi / l)/sigma; right/left: k = tan(2 pi / l)/sigma.
    The minimum admitted l (4 symmetric, 8 right/left) is the k*sigma = 1
    boundary wave; anything shorter is rejected.
    """
    lmin = _MIN_POINTS[c.kind]
    if not l >= lmin:
        raise DomainError(f"need at least {lmin:g} points per wavelength")
    return lattice_dispersion(c.kind)[0](2 * math.pi / l) / c.sigma_float()


def momentum_to_wavelength(c: Correspondence, k: float) -> float:
    """Wavelength of the discrete wave with momentum k, for 0 < k*sigma <= 1."""
    sigma = c.sigma_float()
    s = k * sigma
    if not 0 < s <= 1:
        raise DomainError("requires 0 < k sigma <= 1")
    theta, span = lattice_dispersion(c.kind)[1](s), 2 * math.pi * sigma
    return span / theta if span < math.inf else sigma * (2 * math.pi / theta)


def amplitude_growth(l: float, n: int) -> float:
    """Envelope factor sec(2 pi / l)^(l n) of right/left waves after n periods."""
    if not n >= 0:
        raise ValueError("n must be >= 0")
    if not l > 4:
        raise DomainError("growth factor is defined for l > 4")
    return _power(1.0 / math.cos(2 * math.pi / l), l * n)


def amplitude_growth_log(l: float, n: int) -> float:
    """Natural log of amplitude_growth, for point counts far past the double range."""
    if not n >= 0:
        raise ValueError("n must be >= 0")
    if not l > 4:
        raise DomainError("growth factor is defined for l > 4")
    log_cos = math.log(math.cos(2 * math.pi / l))
    return -l * n * log_cos if log_cos else 0.0  # growth 1.0, also at l = inf where l * 0 is nan


@dataclass(frozen=True)
class WaveSpec:
    """A discrete wave: momentum, points per wavelength and wavelength, kept consistent."""

    correspondence: Correspondence
    k: float
    points_per_wavelength: float
    wavelength: float

    def __post_init__(self):
        sigma = self.correspondence.sigma_float()
        s = self.k * sigma
        if not 0 < s <= 1:
            raise DomainError("discrete waves require 0 < k sigma <= 1")
        if self.points_per_wavelength == math.inf:  # the count past the double range, as lambda/sigma must be
            disagree = self.wavelength / sigma < math.inf
        else:
            disagree = abs(self.wavelength - self.points_per_wavelength * sigma) > 1e-10 * self.wavelength
        if disagree:
            raise ValueError("wavelength and point count disagree")
        # the rule, not its inverse: asin near k sigma = 1 magnifies one rounding of k sigma to 1e-8;
        # a wavelength past the double range is inf and no longer fixes k; a subnormal
        # sigma/lambda is rounded to the 2^-1074 grid, which 2 pi widens to 4 steps
        rule = lattice_dispersion(self.correspondence.kind)[0]
        theta = 2 * math.pi * (sigma / self.wavelength)
        if self.wavelength < math.inf and abs(rule(theta) - s) > 1e-10 * s + 2.0**-1071:
            raise ValueError("momentum and wavelength disagree for this correspondence")

    @property
    def is_minimal(self) -> bool:
        return abs(self.k * self.correspondence.sigma_float() - 1.0) < 1e-12

    @classmethod
    def from_momentum(cls, c: Correspondence, k: float) -> "WaveSpec":
        lam = momentum_to_wavelength(c, k)
        return cls(c, k, lam / c.sigma_float(), lam)

    @classmethod
    def from_points(cls, c: Correspondence, l: float) -> "WaveSpec":
        k = wavelength_to_momentum(c, l)
        return cls(c, k, l, l * c.sigma_float())


@dataclass(frozen=True)
class AdditionLawReport:
    """Products probing the two exponential addition laws on the lattice."""

    translation_product: float
    translation_expected: float
    two_constant_product: float
    two_constant_expected: float

    @property
    def translation_residual(self) -> float:
        return abs(self.translation_product - self.translation_expected)

    @property
    def two_constant_residual(self) -> float:
        return abs(self.two_constant_product - self.two_constant_expected)


def addition_law_check(
    c: Correspondence, k: float, k2: float, m: int, n: int
) -> AdditionLawReport:
    """Check E(k,m)E(k,n) = E(k,m+n) and probe E(k,m)E(k2,m) vs E(k+k2,m).

    The same-momentum translation law survives discretization; the
    two-momentum law generically does not.
    """
    s = c.sigma_float()
    if abs(k) * s >= 1 or abs(k2) * s >= 1:
        raise DomainError("both momenta must satisfy |k sigma| < 1")
    return AdditionLawReport(
        umbral_exp(c, k, m) * umbral_exp(c, k, n),
        umbral_exp(c, k, m + n),
        umbral_exp(c, k, m) * umbral_exp(c, k2, m),
        umbral_exp(c, k + k2, m),
    )


@dataclass
class DiscreteFunction:
    """Samples of a lattice function on a contiguous index window."""

    sigma: float
    m_min: int
    values: list

    def __post_init__(self):
        if not self.values:
            raise ValueError("window must contain at least one point")

    @property
    def m_max(self) -> int:
        return self.m_min + len(self.values) - 1

    @property
    def window(self) -> tuple[int, int]:
        return self.m_min, self.m_max

    def indices(self) -> range:
        return range(self.m_min, self.m_max + 1)

    def value(self, m: int):
        if not self.m_min <= m <= self.m_max:
            raise KeyError(f"index {m} outside window {self.window}")
        return self.values[m - self.m_min]

    def moduli(self) -> list[float]:
        return [abs(v) for v in self.values]
