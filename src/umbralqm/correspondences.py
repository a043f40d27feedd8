"""Basic polynomial sequences of the three lattice correspondences.

Each basic polynomial xi^n 1 is sigma^n times a product of linear factors
x/sigma - r over an integer progression of roots r. The exact coefficient
form, the exact, float and log-magnitude lattice values and the zero sets
all derive from that one root description. The exponential series engine
sums k^n/n! * sigma^n * L_n(m) exactly, where the root product
L_n(m) = prod(m - r) is an integer advanced by _lattice_steps: its status is
the convergence theorem, its sum a binary split to a certified term count;
complex momenta sum in Gaussian integers.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterator

from .operators import Correspondence, Kind
from .polynomials import Polynomial, _reduced

_TERM_BUDGET = 40_000  # most terms one series cell may sum; see the README numerical notes
_SPLIT_LEAF = 32  # chain runs this short are multiplied out in a loop
_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


class SummationStatus(Enum):
    EXACT_CUTOFF = "exact_cutoff"
    CONVERGED = "converged"
    DIVERGED = "diverged"
    UNSUMMED = "unsummed"  # convergent, not summed within the term budget


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
    _lattice_steps), so its odd degrees form a second chain.
    """
    return [1, m] if kind is Kind.SYMMETRIC else [1]


def _lattice_steps(kind: Kind, m: int, run: range):
    """L_{n+step}(m) / L_n(m) for each n in run: prod(m - r) over the roots degree n + step adds.

    Right adds the root n and left the root -n (step 1); symmetric adds n and
    -n (step 2), so its odd and even degrees form separate chains.
    """
    right = range(m - run.start, m - run.stop, -run.step)  # m - n
    left = range(m + run.start, m + run.stop, run.step)  # m + n
    if kind is Kind.RIGHT:
        return right
    if kind is Kind.LEFT:
        return left
    return map(mul, right, left)


def basic_polynomial(c: Correspondence, n: int) -> Polynomial:
    """Exact coefficient form of the degree-n basic polynomial xi^n 1."""
    lead, rest = _roots(c.kind, n)
    coeffs = [1]  # prod(y - r), lowest degree first
    for r in rest:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    if lead:
        coeffs.insert(0, 0)
    u, v = c.sigma_exact().as_integer_ratio()  # a_j sigma^(n-j) = a_j u^(n-j) v^j / v^n
    return _reduced([a * u ** (n - j) * v**j for j, a in enumerate(coeffs)], v**n)


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


def _float_values(c: Correspondence, n: int, lead: bool, rest: range, ms):
    """basic_polynomial_value at a float sigma for each m of the sequence ms.

    sigma, the zeros and whether a running product can leave the normal range
    are found once. Off the zeros each of the at most n factors has a
    magnitude in [sigma, (max |m| + n) sigma], so the products stay in range
    when those bounds to the n-th power do, with e to spare for the rounding.
    """
    zeros = {0, *rest} if lead else set(rest)
    sigma, lo = float(c.sigma), sys.float_info.min
    log_sigma, top = math.log(sigma), max(map(abs, ms), default=0) + n
    risky = n and (n * log_sigma < _LOG_MIN + 1 or n * (log_sigma + math.log(top)) > _LOG_MAX - 1)
    for m in ms:
        if m in zeros:
            yield 0.0
            continue
        acc = m * sigma if lead else 1.0
        for r in rest:
            acc *= (m - r) * sigma
            if risky and not lo <= abs(acc) < math.inf:
                acc = _signed_exp(*basic_polynomial_value_log(c, n, m))
                break
        yield acc


def basic_polynomial_column(c: Correspondence, n: int, ms) -> Iterator:
    """basic_polynomial_value(c, n, m) for each int m of ms, lazily.

    With an int or Fraction sigma each value is an exact Fraction; with a
    float sigma it is a float computed as an iterative product, +0.0 at the
    zeros. Once the running product leaves the normal double range the value
    is re-derived from basic_polynomial_value_log and rounded once: +-inf,
    +-0.0 or a subnormal past the range.
    """
    lead, rest = _roots(c.kind, n)
    if not isinstance(c.sigma, (int, Fraction)):
        return _float_values(c, n, lead, rest, ms)
    scale = Fraction(c.sigma) ** n
    return (scale * math.prod((m - r for r in rest), start=m if lead else 1) for m in ms)


def basic_polynomial_value(c: Correspondence, n: int, m: int):
    """Closed-form value of the degree-n basic polynomial at the point m*sigma: basic_polynomial_column at m."""
    return next(basic_polynomial_column(c, n, (int(m),)))


def _signed_exp(sign: float, mag: float) -> float:
    """sign * e^mag rounded once: +-inf past the double range, +-0.0 or a subnormal below it."""
    try:
        return math.copysign(math.exp(mag), sign)
    except OverflowError:
        return math.copysign(math.inf, sign)


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


def _norm(x) -> int:
    """|x|^2 of an int or Gaussian integer, exactly."""
    return x.re * x.re + x.im * x.im if isinstance(x, _GaussianInt) else x * x


def _log_abs(x) -> float:
    """Natural log of |x| for an int or Gaussian integer of any size; -inf at 0."""
    if not x:
        return -math.inf
    return math.log(abs(x)) if isinstance(x, int) else 0.5 * math.log(_norm(x))


def _to_float(num, den: int):
    """num/den correctly rounded, a complex for a Gaussian num; +-inf past the double range."""
    if isinstance(num, _GaussianInt):
        return complex(_to_float(num.re, den), _to_float(num.im, den))
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf  # copysign overflows on a huge int


def _decimal(x) -> Fraction:
    """x as an exact Fraction; a float reads as its shortest decimal, so 0.2 is 1/5."""
    return Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)


def _momentum_ratio(k, sigma):
    """k sigma as an exact ratio P/Q, Q > 0, read through _decimal; P is Gaussian for complex k."""
    sigma = _decimal(sigma)
    if not (isinstance(k, complex) and k.imag):
        s = _decimal(k.real) * sigma
        return s.numerator, s.denominator
    re, im = _decimal(k.real) * sigma, _decimal(k.imag) * sigma
    Q = math.lcm(re.denominator, im.denominator)
    P = _GaussianInt(re.numerator * (Q // re.denominator), im.numerator * (Q // im.denominator))
    return P, Q


def _closed_base(kind: Kind, ks):
    """(base, s): the closed-form discrete exponential (umbral_exp) at m is base**(s*m)."""
    if kind is Kind.RIGHT:
        return 1 + ks, 1
    if kind is Kind.LEFT:
        return 1 - ks, -1
    # ks + root = 1/(root - ks), root = sqrt(ks^2 + 1): the form that cancels is the one
    # where ks points away from root, Re(ks conj(root)) < 0 (real ks < 0, or ks = iy, y < -1)
    sqrt = cmath.sqrt if isinstance(ks, complex) else math.sqrt
    if cmath.isfinite(ks * ks):
        root = sqrt(ks * ks + 1)
        return (1 / (root - ks) if (ks * root.conjugate()).real < 0 else ks + root), 1
    # ks^2 overflows: in units of t = 2^600 the 1 falls below an ulp, and nothing overflows before the last step
    w = ks * 2.0**-600
    root = sqrt(w * w + 2.0**-1200)
    return (2.0**-600 / (root - w) if (w * root.conjugate()).real < 0 else (w + root) * 2.0**600), 1


def _series_status(kind: Kind, P, Q: int, m: int) -> SummationStatus:
    """The convergence theorem for sum_n (P/Q)^n L_n(m) / n!, before any term budget.

    A finite sum for k = 0, m = 0, right m > 0 and left m < 0. Else, with
    q = |P|/Q compared in integers: converged for q < 1, diverged for q > 1
    and for right/left q = 1. Symmetric terms at q = 1 fall like n^-1.5: a
    convergent series too slow for any budget.
    """
    if not P or m == 0 or (kind is Kind.RIGHT and m > 0) or (kind is Kind.LEFT and m < 0):
        return SummationStatus.EXACT_CUTOFF
    p2, q2 = _norm(P), Q * Q
    if p2 < q2:
        return SummationStatus.CONVERGED
    if p2 > q2 or kind is not Kind.SYMMETRIC:
        return SummationStatus.DIVERGED
    return SummationStatus.UNSUMMED


def _log_tail(kind: Kind, log_q: float, m: int, n: int, logs) -> float:
    """log of a bound on sum_{j >= n} |t_j| from logs = [log |t_n|, ..., log |t_(n+step-1)|].

    A chain whose next term is 0 stays 0. Else each ratio |t_(j+step) / t_j|,
    j >= n, is below r = q (n + |m|)/(n + 1) for right/left and q^2 for
    symmetric once n >= |m|, so the tail is at most the next step terms over
    1 - r; inf while no r < 1 exists.
    """
    top = max(logs)
    if top == -math.inf:
        return top
    q = math.exp(log_q)
    if kind is Kind.SYMMETRIC:
        r = q * q if n >= abs(m) else math.inf
    else:
        r = q * (n + abs(m)) / (n + 1)
    if r >= 1:
        return math.inf
    return top + math.log(sum(math.exp(x - top) for x in logs)) - math.log1p(-r)


def _term_count(kind: Kind, log_q: float, m: int, target: float) -> int:
    """Fewest terms N whose tail, estimated with lgamma, is at most e^target; past the budget if none is.

    The bound falls monotonically once finite, so bisection finds N in
    O(log budget) evaluations.
    """
    step = len(_lattice_chains(kind, m))
    unit = Correspondence(kind, 1)

    def fits(n: int) -> bool:
        logs = [j * log_q + basic_polynomial_value_log(unit, j, m)[1] - math.lgamma(j + 1)
                for j in range(n, n + step)]
        return _log_tail(kind, log_q, m, n, logs) <= target

    return bisect_left(range(_TERM_BUDGET + 2), True, key=fits)


def _merge(left, right):
    """(A, B, T) of two adjacent runs of a chain joined: the right run scales by the left's A/B."""
    A1, B1, T1 = left
    A2, B2, T2 = right
    return A1 * A2, B1 * B2, T1 * B2 + A1 * T2


def _split(ratio, run: range):
    """Binary splitting over the chain indices of a nonempty run; ratio(run) = (p_n, q_n) lists.

    Integers (A, B, T): A/B = prod p/q takes the run's first term to the term
    after it; T/B is the run's sum in units of its first term (Haible and
    Papanikolaou, ANTS-III 1998).
    """
    if len(run) > _SPLIT_LEAF:
        half = len(run) // 2
        return _merge(_split(ratio, run[:half]), _split(ratio, run[half:]))
    terms = zip(*ratio(run))
    p, q = next(terms)
    A, B, T = p, q, p**0 * q
    for p, q in terms:
        A, B, T = A * p, B * q, (T + A) * q
    return A, B, T


def exponential_series_exact(
    c: Correspondence, k, m: int, tol: float
) -> tuple[complex, SummationStatus]:
    """Sum k^n/n! times the basic values at m exactly; (value, status).

    The status is the theorem of _series_status. The first N terms, N chosen
    from the term magnitudes and the closed form's size, are summed by binary
    splitting and accepted once the certified tail is 0 or at most
    tol (|S| - tail); else only the terms past N are split and merged in. The value is the exact
    sum correctly rounded (+-inf or 0.0 past the double range; complex for a
    complex k); nan when diverged or `unsummed` (over _TERM_BUDGET terms).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = int(m)
    kind = c.kind
    P, Q = _momentum_ratio(k, c.sigma)
    status = _series_status(kind, P, Q, m)
    if status not in (SummationStatus.EXACT_CUTOFF, SummationStatus.CONVERGED):
        return math.nan, status
    log_q, accept = _log_abs(P) - math.log(Q), math.log(tol / (1 + tol))
    if status is SummationStatus.EXACT_CUTOFF:
        N = abs(m) + 1 if P else 1
    else:
        base, sign = _closed_base(kind, _to_float(P, Q))
        if not base:  # k sigma rounds to -1 (right) or 1 (left): some 1e16 terms
            return math.nan, SummationStatus.UNSUMMED
        N = _term_count(kind, log_q, m, accept - math.log(4) + sign * m * math.log(abs(base)))

    starts = _lattice_chains(kind, m)
    step = len(starts)
    Ps, Qs = P**step, Q**step

    def ratio(run: range):  # p_n = P^step L_(n+step)/L_n, q_n = Q^step (n+1)...(n+step)
        rising = map(math.perm, range(run.start + step, run.stop + step, step), repeat(step))
        return [Ps * s for s in _lattice_steps(kind, m, run)], [Qs * f for f in rising]

    # chain i holds the terms n = i mod step as (A, B, T): A/B the first term
    # not summed yet (P^i L_i(m) / Q^i at the start), T/B the sum so far
    chains = [(P**i * L, Q**i, P * 0) for i, L in enumerate(starts)]
    done = 0
    while N <= _TERM_BUDGET:
        runs = [range(done + (i - done) % step, N, step) for i in range(step)]
        chains = [_merge(chain, _split(ratio, run)) if run else chain for chain, run in zip(chains, runs)]
        done = N
        num, den = P * 0, 1
        for _, B, T in chains:
            num, den = num * B + T * den, den * B
        log_sum = _log_abs(num) - math.log(den)
        tail = _log_tail(kind, log_q, m, N, [_log_abs(A) - math.log(B) for A, B, _ in chains])
        if tail == -math.inf or tail - log_sum <= accept:  # a finite sum may be exactly 0
            return _to_float(num, den), status
        N = max(_term_count(kind, log_q, m, accept - math.log(4) + log_sum), 2 * N)
    return math.nan, SummationStatus.UNSUMMED
