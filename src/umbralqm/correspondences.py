"""Basic polynomial sequences of the three lattice correspondences.

Each basic polynomial xi^n 1 is sigma^n times a product of linear factors
x/sigma - r over an integer progression of roots r. The exact coefficient
form, the exact, float and log-magnitude lattice values and the zero sets
all derive from that one root description. The exponential series engine
sums k^n/n! * sigma^n * L_n(m) exactly, where the root product
L_n(m) = prod(m - r) is an integer advanced by _lattice_step, and reports
cutoff, convergence or divergence; complex momenta sum in Gaussian integers.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from .operators import Correspondence, Kind
from .polynomials import Polynomial

_MAX_TERMS = 4000  # term budget of the infinite series
_BLOWUP_FACTOR = 1e12  # partial sums this far past the first term may be diverging
_BLOWUP_RUN = 50  # consecutive rising partial sums before the divergence test


class EvaluationOverflow(OverflowError):
    """An iterative product left the double range; use the log-space evaluator."""


class SummationStatus(Enum):
    EXACT_CUTOFF = "exact_cutoff"
    CONVERGED = "converged"
    DIVERGED = "diverged"


# ---------------------------------------------------------------------------
# basic sequences
# ---------------------------------------------------------------------------


def _roots(kind: Kind, n: int) -> tuple[bool, range]:
    """Roots of the degree-n basic polynomial in units of sigma.

    B_n(x) = sigma^n * y^lead * prod(y - r for r in rest) with y = x/sigma.
    `lead` is the extra root at the origin of the symmetric kind; `rest`
    descends, so the factors m - r at a lattice point ascend:
    right 0..n-1, left 0..-(n-1), symmetric (central factorial) 0 and
    n-2, n-4, ..., -(n-2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind is Kind.RIGHT:
        return False, range(n - 1, -1, -1)
    if kind is Kind.LEFT:
        return False, range(0, -n, -1)
    return n > 0, range(n - 2, -n, -2)


def _lattice_chains(kind: Kind, m: int) -> list[int]:
    """Root products L_n(m) for n < step, the start of one chain per residue of n mod step.

    L_0(m) = 1 and L_1(m) = m; the symmetric kind steps by 2 (see
    _lattice_step), so its odd degrees form a second chain.
    """
    return [1, m] if kind is Kind.SYMMETRIC else [1]


def _lattice_step(kind: Kind, m: int, n: int) -> int:
    """L_{n+step}(m) / L_n(m): prod(m - r) over the roots that degree n + step adds.

    Right adds the root n and left the root -n (step 1); symmetric adds n and
    -n (step 2), so its odd and even degrees form separate chains.
    """
    if kind is Kind.RIGHT:
        return m - n
    if kind is Kind.LEFT:
        return m + n
    return (m - n) * (m + n)


def basic_polynomial(c: Correspondence, n: int) -> Polynomial:
    """Exact coefficient form of the degree-n basic polynomial xi^n 1."""
    lead, rest = _roots(c.kind, n)
    coeffs = [1]  # prod(y - r), lowest degree first
    for r in rest:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    if lead:
        coeffs.insert(0, 0)
    sigma = c.sigma_exact()
    return Polynomial([a * sigma ** (n - j) for j, a in enumerate(coeffs)])


def zeros_of_basic_polynomial(c: Correspondence, n: int) -> list[int]:
    """Lattice indices of the distinct zeros of the degree-n basic polynomial.

    All zeros are simple except the symmetric origin at even n, a double zero
    (B_4 = x^2 (x^2 - 4 sigma^2)); there n - 1 indices are returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lead, rest = _roots(c.kind, n)
    zeros = set(rest)
    if lead:
        zeros.add(0)
    return sorted(zeros)


def basic_polynomial_value(c: Correspondence, n: int, m: int):
    """Closed-form value of the degree-n basic polynomial at the point m*sigma.

    With an int or Fraction sigma the result is an exact Fraction; with a
    float sigma it is a float computed as an iterative product, +0.0 at the
    zeros, raising EvaluationOverflow when the product leaves the double range.
    """
    lead, rest = _roots(c.kind, n)
    m = int(m)
    if isinstance(c.sigma, (int, Fraction)):
        return Fraction(c.sigma) ** n * math.prod((m - r for r in rest), start=m if lead else 1)
    if (lead and m == 0) or m in rest:
        return 0.0
    sigma = float(c.sigma)
    acc = m * sigma if lead else 1.0
    for r in rest:
        acc *= (m - r) * sigma
    if math.isinf(acc):
        raise EvaluationOverflow(
            f"closed-form product for n={n}, m={m} exceeds the double range; "
            "use basic_polynomial_value_log"
        )
    return acc


def _log_abs_prod(run: range) -> float:
    """log |prod(run)| for an ascending run of same-signed nonzero integers, step 1 or 2.

    The magnitudes form an arithmetic progression lo, lo + d, ..., so the
    product is d^c * Gamma(lo/d + c) / Gamma(lo/d): O(1) for any length c.
    """
    if not run:
        return 0.0
    lo = min(abs(run[0]), abs(run[-1])) / run.step
    return len(run) * math.log(run.step) + math.lgamma(lo + len(run)) - math.lgamma(lo)


def basic_polynomial_value_log(c: Correspondence, n: int, m: int) -> tuple[float, float]:
    """Sign and natural log magnitude of the closed-form value; (0, -inf) at zeros."""
    lead, rest = _roots(c.kind, n)
    m = int(m)
    if (lead and m == 0) or m in rest:
        return 0.0, -math.inf
    sign, mag = 1.0, n * math.log(c.sigma_float())
    if lead:
        sign, mag = math.copysign(1.0, m), mag + math.log(abs(m))
    factors = range(m - rest.start, m - rest.stop, -rest.step)  # m - r, ascending
    below = factors[: len(range(factors.start, 0, factors.step))]
    above = factors[len(below) :]
    sign *= (-1.0) ** len(below)
    return sign, mag + _log_abs_prod(below) + _log_abs_prod(above)


# ---------------------------------------------------------------------------
# exponential series
# ---------------------------------------------------------------------------


class _SeriesMonitor:
    """Tail-bound convergence test plus the blow-up divergence heuristic."""

    def __init__(self, tol: float):
        self.tol = tol
        self.first_mag = 0.0
        self.prev_term = 0.0
        self.hits = 0
        self.prev_sum = 0.0
        self.rises = 0
        self.ratios: list[tuple[int, float]] = []

    def term_converged(self, tmag: float, smag: float) -> bool:
        # Scale against the current partial sum only: under heavy cancellation
        # the partial sums shrink toward the true value, so the test tightens
        # itself instead of stopping at the noise floor of the large terms.
        if tmag == 0.0:
            return False
        if not self.first_mag:
            self.first_mag = tmag
        ok = False
        if self.prev_term:
            ratio = tmag / self.prev_term
            self.ratios.append((len(self.ratios) + 1, ratio))
            scale = smag if smag > 0 else self.first_mag
            if ratio < 1.0:
                tail = tmag * ratio / (1.0 - ratio)
                ok = tmag <= self.tol * scale and tail <= self.tol * scale
        self.hits = self.hits + 1 if ok else 0
        self.prev_term = tmag
        return self.hits >= 2

    def _ratio_limit(self) -> Optional[float]:
        # The term ratios of the series handled here behave like
        # L * (1 + a/n); two well-separated samples recover the limit L,
        # which separates growth toward a large finite sum (L < 1) from
        # genuine divergence (L >= 1).
        hist = self.ratios
        if len(hist) < 10:
            return None
        (n1, r1), (n2, r2) = hist[len(hist) // 2], hist[-1]
        if n1 == n2:
            return r2
        slope = (r1 - r2) / (1.0 / n1 - 1.0 / n2)
        return r2 - slope / n2

    def sum_diverged(self, smag: float) -> bool:
        if smag > self.prev_sum:
            self.rises += 1
        else:
            self.rises = 0
        self.prev_sum = smag
        if (
            self.rises < _BLOWUP_RUN
            or self.first_mag == 0.0
            or smag <= _BLOWUP_FACTOR * self.first_mag
        ):
            return False
        limit = self._ratio_limit()
        return limit is not None and limit >= 1.0 - 1e-9


class _GaussianInt:
    """Exact Gaussian integer re + i*im, the numerator of a complex momentum's series.

    It supports what the exact engine does to its numerators: adding another
    Gaussian integer, multiplying by an int or another Gaussian integer,
    small powers and the zero test.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re, self.im = re, im

    def __add__(self, other: _GaussianInt):
        return _GaussianInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        if isinstance(other, _GaussianInt):
            return _GaussianInt(
                self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
            )
        return _GaussianInt(self.re * other, self.im * other)

    def __pow__(self, n: int):
        out = _GaussianInt(1, 0)
        for _ in range(n):
            out *= self
        return out

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


def _ratio_to_float(num, den: int):
    # float(num/den) without building a Fraction; den > 0. A Gaussian
    # numerator gives a complex.
    if isinstance(num, _GaussianInt):
        return complex(_ratio_to_float(num.re, den), _ratio_to_float(num.im, den))
    if num == 0:
        return 0.0
    sign = 1.0 if num > 0 else -1.0
    a, b = abs(num), den
    excess = max(a.bit_length(), b.bit_length()) - 256
    if excess > 0:
        a >>= excess
        b >>= excess
        if b == 0:
            return sign * math.inf
        if a == 0:
            return 0.0
    return sign * (a / b)


def _momentum_ratio(k, sigma: Fraction):
    """k sigma as an exact ratio P/Q, Q > 0; P is a Gaussian integer for complex k."""
    if not isinstance(k, complex):
        s = Fraction(k) * sigma
        return s.numerator, s.denominator
    re, im = Fraction(k.real) * sigma, Fraction(k.imag) * sigma
    Q = math.lcm(re.denominator, im.denominator)
    P = _GaussianInt(re.numerator * (Q // re.denominator), im.numerator * (Q // im.denominator))
    return P, Q


def exponential_series_exact(
    c: Correspondence, k, m: int, tol: float
) -> tuple[complex, SummationStatus]:
    """Sum k^n/n! times the basic values with an exact integer accumulator.

    The alternating branches of the discrete exponential cancel through tens
    of orders of magnitude, far beyond double precision; here the partial sum
    is kept as an exact integer ratio (the denominators Q^n n! form a
    divisible chain, so no gcd reduction is ever needed) and floats are only
    used for the stopping rules and the final value. A real k (int, float or
    Fraction) sums in integers and returns a float; a complex k sums in
    Gaussian integers and returns a complex.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = int(m)
    P, Q = _momentum_ratio(k, c.sigma_exact())
    if not P:
        return 1.0, SummationStatus.EXACT_CUTOFF
    kind = c.kind
    # P^n * L_n(m), one chain per residue of n mod step
    chains = [P**j * L for j, L in enumerate(_lattice_chains(kind, m))]
    step = len(chains)
    P_step = P**step
    monitor = _SeriesMonitor(tol)

    total_num = P * 0  # zero of the numerator type
    denom = 1  # Q^n * n! at the current order
    status = None
    for n in range(_MAX_TERMS):
        i = n % step
        a = chains[i]
        total_num += a
        tmag = abs(_ratio_to_float(a, denom))
        chains[i] *= P_step * _lattice_step(kind, m, n)

        if not any(chains):
            status = SummationStatus.EXACT_CUTOFF
            break
        smag = abs(_ratio_to_float(total_num, denom))
        if monitor.term_converged(tmag, smag):
            status = SummationStatus.CONVERGED
            break
        if monitor.sum_diverged(smag):
            status = SummationStatus.DIVERGED
            break

        scale = Q * (n + 1)
        total_num *= scale
        denom *= scale
    if status is None:
        status = SummationStatus.DIVERGED
    return _ratio_to_float(total_num, denom), status
