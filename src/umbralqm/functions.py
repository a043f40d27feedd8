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
from functools import cache, partial
from itertools import chain, repeat
from operator import add, attrgetter, neg, sub
from typing import Iterator

from .correspondences import SummationStatus, exponential_series_column
from .correspondences import _blocks, _closed_base, _momentum_ratio, _series_status, _signed_exp
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


def _ldexp(x: float, e: int) -> float:
    """x * 2**e rounded once: +-inf past the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _complex_past_range(base: complex, expo: int) -> complex:
    """base**expo for a complex base whose power the double arithmetic cannot give.

    An imaginary base i b gives i^n b^n, exact in its zero part. Any other base
    with |expo| <= 100, where CPython's power is repeated multiplication, is
    scaled by a power of 2 that brings its larger part to [0.5, 1), raised,
    and each part scaled back, rounded once. Past that each part is r cos(phi)
    or r sin(phi) from log r and phi. Either way a part within the range stays
    finite.
    """
    if base.real == 0:
        b = _power(base.imag, expo)
        return (complex(b, 0.0), complex(0.0, b), complex(-b, 0.0), complex(0.0, -b))[expo % 4]
    if abs(expo) <= 100:
        e = math.frexp(max(abs(base.real), abs(base.imag)))[1]
        w = complex(math.ldexp(base.real, -e), math.ldexp(base.imag, -e)) ** expo
        return complex(_ldexp(w.real, e * expo), _ldexp(w.imag, e * expo))
    log_r, phi = expo * math.log(abs(base)), expo * cmath.phase(base)
    parts = (math.cos(phi), math.sin(phi))
    return complex(*(_signed_exp(t, log_r + math.log(abs(t))) if t else t for t in parts))


def _zero_power(expo: int) -> float:
    if expo < 0:
        raise DomainError("closed form is 0 raised to a negative power")
    return 1.0 if expo == 0 else 0.0


def _complex_power(base: complex, expo: int) -> complex:
    """base**expo; a power that fails or leaves the range goes through _complex_past_range.

    A finite power of an imaginary base below the normal range may be an
    intermediate's 1/inf, so it leaves the range too.
    """
    try:
        z = base**expo
    except (OverflowError, ZeroDivisionError):
        return _complex_past_range(base, expo)
    return z if _complex_in_range(base, (z,)) else _complex_past_range(base, expo)


def _complex_in_range(base: complex, zs) -> bool:
    """Whether every power zs of base is one _complex_power keeps: finite, and normal for an imaginary base."""
    return all(map(cmath.isfinite, zs)) and not (base.real == 0 and min(map(abs, zs)) < sys.float_info.min)


def _power_pass(cell, bases, expos, ok=None) -> list:
    """[cell(b, e) for each pair of bases and expos], computed as one pass of b**e.

    cell(b, e) must be b**e wherever that power does not raise, in a block
    that ok, if given, accepts. A block where a power raises or that ok
    rejects goes through cell pair by pair, which reads bases and expos
    again: each is a sequence or a repeat.
    """
    try:
        values = list(map(pow, bases, expos))
        if ok is None or ok(values):
            return values
    except (OverflowError, ZeroDivisionError):
        pass
    return list(map(cell, bases, expos))


def umbral_exp_column(c: Correspondence, k, ms) -> Iterator:
    """umbral_exp(c, k, m) for each int m of the iterable ms, in blocks; the closed base is computed once.

    Right: (1 + k sigma)^m, Left: (1 - k sigma)^(-m),
    Symmetric: (k sigma + sqrt((k sigma)^2 + 1))^m with the principal root.
    Each block of _blocks (a step-1 range in slices of at most 4096 cells,
    any other iterable cell by cell) is one pass of base**(s m); a block
    where a power raises, or a complex one leaves the range, goes through the
    per-cell rule. A value past the double range is its correctly signed inf;
    a complex power that overflows gives each part by _complex_past_range, so
    a part within the range stays finite. An imaginary base i b (symmetric,
    k sigma = iy with |y| > 1) whose power leaves the normal range is i^n b^n,
    exact in its zero part.
    """
    base, s = _closed_base(c.kind, k * c.sigma_float())
    if base == 0:
        cells = chain.from_iterable(_blocks(ms))
        return map(_zero_power, cells if s == 1 else map(neg, cells))
    cell, ok = (_complex_power, partial(_complex_in_range, base)) if isinstance(base, complex) else (_power, None)
    return chain.from_iterable(
        _power_pass(cell, repeat(base), block if s == 1 else list(map(neg, block)), ok) for block in _blocks(ms)
    )


def umbral_exp(c: Correspondence, k, m: int):
    """Closed-form discrete exponential at lattice index m: umbral_exp_column at one point."""
    return next(umbral_exp_column(c, k, (int(m),)))


def umbral_exp_series(
    c: Correspondence, k, m: int, tol: float = 1e-12
) -> tuple[complex, SummationStatus]:
    """Discrete exponential from the series k^n/n! times the basic values: exponential_series_column at one point.

    The exact engine survives the catastrophic cancellation of the
    alternating branches. A float k or sigma is read as its shortest decimal,
    so 0.2 sums as 1/5; a complex k with a nonzero imaginary part sums in
    Gaussian integers and gives a complex.
    """
    return next(exponential_series_column(c, k, (int(m),), tol))


def closed_form_status(c: Correspondence, k, m: int) -> SummationStatus:
    """Status the series route reports at m whenever its term count fits the budget."""
    return _series_status(c.kind, *_momentum_ratio(k, c.sigma), int(m))


def _hyperbolic(c: Correspondence, k: float, ms, sinh: bool):
    """sinh or cosh from the e(k) and e(-k) columns by block; where one is inf, half the large one from its log."""

    @cache  # the log slope s log(base) of e(big), big = k or -k: once, at its first inf cell
    def slope(big: float) -> float:
        base, s = _closed_base(c.kind, big * c.sigma_float())
        return s * math.log(base)

    def cells(block: range) -> list:
        eps = list(umbral_exp_column(c, k, block))
        # times 0.5 rounds exactly as a division by 2 does
        values = list(map(0.5.__mul__, map(sub if sinh else add, eps, umbral_exp_column(c, -k, block))))
        for j, value in enumerate(values) if not all(map(math.isfinite, values)) else ():
            if math.isinf(value):
                big = k if math.isinf(eps[j]) else -k
                values[j] = _signed_exp(-1.0 if sinh and big != k else 1.0, block[j] * slope(big) - math.log(2))
        return values

    return chain.from_iterable(map(cells, _blocks(ms)))


def umbral_trig_column(c: Correspondence, k: float, ms, which: str) -> Iterator[float]:
    """umbral_trig(c, k, m, which) for each int m of the iterable ms, in blocks.

    sin and cos admit |k sigma| <= 1 (the boundary is the minimal wave) and
    are the imaginary and real parts of e(ik), since e(-ik) is its conjugate.
    sinh and cosh require |k sigma| < 1 and are computed in blocks from the
    e(k) and e(-k) columns; where one of them is past the double range the
    other is at most 1, so the value is the half of the large one, rounded
    once from its log. The domain is checked before any cell is computed.
    """
    if which not in _TRIG_NAMES:
        raise ValueError(f"which must be one of {_TRIG_NAMES}")
    k = float(k)
    ks = abs(k) * c.sigma_float()
    if which in ("sin", "cos"):
        if ks > 1.0:
            raise DomainError("sin/cos require |k sigma| <= 1")
        part = attrgetter("imag" if which == "sin" else "real")
        return map(part, umbral_exp_column(c, complex(0.0, k), ms))
    if ks >= 1.0:
        raise DomainError("sinh/cosh require |k sigma| < 1")
    return _hyperbolic(c, k, ms, which == "sinh")


def umbral_trig(c: Correspondence, k: float, m: int, which: str) -> float:
    """Discrete sin/cos/sinh/cosh built from the discrete exponential: umbral_trig_column at one point."""
    return next(umbral_trig_column(c, k, (int(m),), which))


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


class WaveSpec:
    """A discrete wave: momentum, points per wavelength and wavelength, kept consistent."""

    def __init__(self, correspondence: Correspondence, k: float, points_per_wavelength: float, wavelength: float):
        sigma = correspondence.sigma_float()
        s = k * sigma
        if not 0 < s <= 1:
            raise DomainError("discrete waves require 0 < k sigma <= 1")
        if points_per_wavelength == math.inf:  # the count past the double range, as lambda/sigma must be
            disagree = wavelength / sigma < math.inf
        else:
            disagree = abs(wavelength - points_per_wavelength * sigma) > 1e-10 * wavelength
        if disagree:
            raise ValueError("wavelength and point count disagree")
        # the rule, not its inverse: asin near k sigma = 1 magnifies one rounding of k sigma to 1e-8;
        # a wavelength past the double range is inf and no longer fixes k; a subnormal
        # sigma/lambda is rounded to the 2^-1074 grid, which 2 pi widens to 4 steps
        rule = lattice_dispersion(correspondence.kind)[0]
        theta = 2 * math.pi * (sigma / wavelength)
        if wavelength < math.inf and abs(rule(theta) - s) > 1e-10 * s + 2.0**-1071:
            raise ValueError("momentum and wavelength disagree for this correspondence")
        self.correspondence, self.k = correspondence, k
        self.points_per_wavelength, self.wavelength = points_per_wavelength, wavelength

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


class DiscreteFunction:
    """Samples of a lattice function on a contiguous index window; compared by value."""

    def __init__(self, sigma: float, m_min: int, values: list):
        if not values:
            raise ValueError("window must contain at least one point")
        self.sigma, self.m_min, self.values = sigma, m_min, values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sigma, self.m_min, self.values) == (other.sigma, other.m_min, other.values)

    def __repr__(self):
        return f"DiscreteFunction(sigma={self.sigma!r}, m_min={self.m_min!r}, values={self.values!r})"

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
