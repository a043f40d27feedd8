"""Basic polynomial sequences of the three lattice correspondences.

Each basic polynomial xi^n 1 is sigma^n times a product of linear factors
x/sigma - r over an integer progression of roots r. The exact coefficient
form, the exact, float and log-magnitude lattice values and the zero sets
all derive from that one root description. Both series engines map Taylor
coefficients onto the lattice by summing f_n * sigma^n * L_n(m), where the
root product L_n(m) = prod(m - r) is an exact integer advanced by
_lattice_step, and report cutoff, convergence or divergence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .operators import Correspondence, Kind
from .polynomials import Polynomial

_LOG_MAX = 709.0  # just under log(DBL_MAX)
_MIN_NORMAL = sys.float_info.min  # smallest double with a full 53-bit mantissa
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
# series transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorSeries:
    """Coefficients f_n of sum f_n x^n, as an explicit list or a generator rule.

    A finite coefficient list is a polynomial: its transform always
    terminates and is reported as an exact cutoff. `func` extends the
    coefficients to arbitrary order; `log_func(n)` optionally returns
    (unit, log_magnitude) so terms stay computable once coefficients leave
    the double range. `parity` marks series whose nonzero coefficients all
    share one parity, which turns the symmetric transform into a finite sum
    at matching lattice points.
    """

    coeffs: Optional[tuple] = None
    func: Optional[Callable[[int], complex]] = None
    log_func: Optional[Callable[[int], tuple[complex, float]]] = None
    parity: Optional[str] = None

    def __post_init__(self):
        if (self.coeffs is None) == (self.func is None):
            raise ValueError("provide exactly one of coeffs or func")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.parity not in (None, "even", "odd"):
            raise ValueError("parity must be None, 'even' or 'odd'")

    @classmethod
    def from_coefficients(cls, coeffs: Sequence, parity: Optional[str] = None) -> "TaylorSeries":
        return cls(coeffs=tuple(coeffs), parity=parity)

    @classmethod
    def exponential(cls, k: Union[float, complex]) -> "TaylorSeries":
        """Coefficients k^n / n!, with a log form that never over/underflows."""
        if k == 0:
            return cls(coeffs=(1.0,))
        if isinstance(k, complex) and k.imag != 0.0:
            mag = abs(k)
            unit = k / mag
        else:
            kf = float(k.real) if isinstance(k, complex) else float(k)
            mag = abs(kf)
            unit = 1.0 if kf > 0 else -1.0
        log_mag = math.log(mag)

        def log_func(n: int) -> tuple[complex, float]:
            return unit**n, n * log_mag - math.lgamma(n + 1)

        def func(n: int):
            u, lm = log_func(n)
            if lm > _LOG_MAX:
                return None  # force the log route
            return u * math.exp(lm)

        return cls(func=func, log_func=log_func)


def _term(f, flog, sigma: float, n: int, L: int):
    """The series term f_n * B_n(m sigma) = f_n * sigma^n * L_n(m).

    The engines sum over the exact integer root products L = L_n(m), so a
    term vanishes exactly at the lattice zeros. sigma^n * L is assembled from
    the mantissas and binary exponents of its factors. The mantissa of sigma
    is at least 1/2, so its 1000th power is still a normal double; taking the
    power in such chunks, renormalized, keeps every factor a full-precision
    double until the product. The term is computed in floats while f and
    sigma^n * L are normal doubles and the term is finite and nonzero, and
    otherwise through logs, with the magnitude capped at exp(_LOG_MAX).
    """
    if L == 0:
        return 0.0
    if f is not None:
        mant, expo = math.frexp(sigma)
        q, r = divmod(n, 1000)  # mant^n = mant^r * (mant^1000)^q
        chunk, chunk_expo = math.frexp(mant**1000)
        bits = L.bit_length()
        try:
            b = math.ldexp(
                mant**r * chunk**q * (L / (1 << bits)), expo * n + chunk_expo * q + bits
            )
            t = f * b
            if t != 0 and math.isfinite(abs(t)) and min(abs(f), abs(b)) >= _MIN_NORMAL:
                return t
        except OverflowError:  # sigma^n * L or |t| beyond the double range
            pass
    if flog is None:
        if f is None or f == 0:
            return 0.0
        fmag = abs(f)
        flog = (f / fmag, math.log(fmag))
    unit_f, lf = flog
    lt = lf + n * math.log(sigma) + math.log(abs(L))
    if lt == -math.inf:
        return 0.0
    mag = math.exp(_LOG_MAX) if lt > _LOG_MAX else math.exp(lt)
    return unit_f * (1.0 if L > 0 else -1.0) * mag


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


def _parity_cutoff(series: TaylorSeries, chains: list[int]) -> bool:
    # One symmetric parity chain has died; if the series has no coefficients
    # on the surviving parity, every remaining term vanishes.
    if series.parity is None or len(chains) != 2:
        return False
    if (chains[0] == 0) == (chains[1] == 0):
        return False
    alive = 1 if chains[0] == 0 else 0
    wanted = 0 if series.parity == "even" else 1
    return alive != wanted


def umbral_transform(
    series: TaylorSeries, c: Correspondence, m: int, tol: float
) -> tuple[complex, SummationStatus]:
    """Sum f_n times the basic value at m*sigma; returns (value, status).

    Finite branches stop with EXACT_CUTOFF; otherwise terms are added until
    the estimated tail drops below tol (CONVERGED) or the partial sums keep
    growing past the blow-up threshold (DIVERGED). Exhausting the term budget
    without converging is also reported as DIVERGED.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = int(m)
    kind = c.kind
    sigma = c.sigma_float()
    chains = _lattice_chains(kind, m)
    step = len(chains)
    monitor = _SeriesMonitor(tol)

    total = 0.0
    if series.coeffs is not None:
        limit, exhausted_status = len(series.coeffs), SummationStatus.EXACT_CUTOFF
    else:
        limit, exhausted_status = _MAX_TERMS, SummationStatus.DIVERGED
    status = None
    for n in range(limit):
        if series.coeffs is not None:
            f, flog = series.coeffs[n], None
        else:
            f = series.func(n)
            flog = series.log_func(n) if series.log_func is not None else None
        i = n % step
        term = _term(f, flog, sigma, n, chains[i])
        total = total + term
        chains[i] *= _lattice_step(kind, m, n)

        if not any(chains) or _parity_cutoff(series, chains):
            status = SummationStatus.EXACT_CUTOFF
            break
        smag = abs(total)
        if monitor.term_converged(abs(term), smag):
            status = SummationStatus.CONVERGED
            break
        if monitor.sum_diverged(smag):
            status = SummationStatus.DIVERGED
            break
    if status is None:
        status = exhausted_status
    return total, status


# ---------------------------------------------------------------------------
# exact exponential summation
# ---------------------------------------------------------------------------


def _ratio_to_float(num: int, den: int) -> float:
    # float(num/den) without building a Fraction; den > 0.
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


def exponential_series_exact(
    c: Correspondence, k, m: int, tol: float
) -> tuple[float, SummationStatus]:
    """Sum k^n/n! times the basic values with an exact integer accumulator.

    The alternating branches of the discrete exponential cancel through tens
    of orders of magnitude, far beyond double precision; here the partial sum
    is kept as an exact integer ratio (the denominators Q^n n! form a
    divisible chain, so no gcd reduction is ever needed) and floats are only
    used for the stopping rules and the final value.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = int(m)
    s = Fraction(k) * c.sigma_exact()
    if s == 0:
        return 1.0, SummationStatus.EXACT_CUTOFF
    P, Q = s.numerator, s.denominator
    kind = c.kind
    # P^n * L_n(m), one chain per residue of n mod step
    chains = [P**j * L for j, L in enumerate(_lattice_chains(kind, m))]
    step = len(chains)
    P_step = P**step
    monitor = _SeriesMonitor(tol)

    total_num = 0
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
