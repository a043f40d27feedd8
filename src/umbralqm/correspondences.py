"""Basic polynomial sequences of the three lattice correspondences.

Each basic polynomial xi^n 1 is sigma^n times a product of linear factors
x/sigma - r over an integer progression of roots r. The exact coefficient
form, the exact, float and log-magnitude lattice values and the zero sets
all derive from that one root description. The exponential series engine
sums k^n/n! * sigma^n * L_n(m) exactly, where the root product
L_n(m) = prod(m - r) is an integer advanced by _lattice_steps: its status is
the convergence theorem, its sum exact to a certified term count; complex
momenta sum in Gaussian integers. A column's first cell is a binary split;
each later one walks from the cells before it by the delta recurrence of the
truncated sum, to the same integers. A finite sum is the binomial theorem.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import chain, islice, repeat
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


_ROW_DEGREE = 63  # root products of degree up to this are kept: at most 3 * 64 rows
_root_rows: dict = {}  # (kind, n) -> _root_product(kind, n)


def _root_product(kind: Kind, n: int) -> tuple[int, ...]:
    """The integer coefficients of prod(y - r) over every root of degree n, the lead included, lowest degree first.

    Walked from the kept row of degree n - step by the roots degree n adds
    (see _lattice_steps: right n - 1, left -(n - 1), symmetric +-(n - 2)),
    else multiplied out. Rows of degree up to _ROW_DEGREE are kept, at most
    one per kind and degree.
    """
    lead, rest = _roots(kind, n)
    step = 2 if kind is Kind.SYMMETRIC else 1
    coeffs = _root_rows.get((kind, n - step))
    if coeffs is None:
        coeffs, new = (0, 1) if lead else (1,), rest
    else:
        prev = n - step
        new = (prev,) if kind is Kind.RIGHT else (-prev,) if kind is Kind.LEFT else (prev, -prev)
    for r in new:
        coeffs = tuple(a - r * b for a, b in zip((0, *coeffs), (*coeffs, 0)))
    if n <= _ROW_DEGREE:
        _root_rows[kind, n] = coeffs
    return coeffs


def basic_polynomial(c: Correspondence, n: int) -> Polynomial:
    """Exact coefficient form of the degree-n basic polynomial xi^n 1."""
    coeffs = _root_product(c.kind, n)
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


_BLOCK = 4096  # most cells a float column computes in one pass


def _blocks(ms):
    """The int cells of ms in order as step-1 ranges, the only walk of a float column.

    A step-1 range comes in slices of at most _BLOCK cells; any other
    iterable one range(m, m + 1) per cell, so a cell that is not an int raises.
    """
    if isinstance(ms, range) and ms.step == 1:
        return (range(i, min(i + _BLOCK, ms.stop)) for i in range(ms.start, ms.stop, _BLOCK))
    return (range(m, m + 1) for m in ms)


def _float_values(c: Correspondence, n: int, lead: bool, rest: range, ms):
    """basic_polynomial_value at a float sigma for each int m of the iterable ms, one block of _blocks at a time.

    The factors (m - r) sigma of a block are one table F over the t = m - r it
    meets. Each root, in _roots' order, multiplies the block's running products
    by a slice of F, so every cell is the per-cell running product; the
    passes are chained maps, so a block holds F and its values, not a list per
    factor. Off the zeros each of the at most n factors has a magnitude in
    [sigma, (max |m| + n) sigma], so the products stay in the normal range when
    those bounds to the n-th power do, with e to spare for the rounding. Only
    a block where they may not lists and checks its products after each factor
    of rest; a cell that left the range there is re-derived from
    basic_polynomial_value_log. Zeros are +0.0.
    """
    sigma, tiny, inf = float(c.sigma), sys.float_info.min, math.inf
    log_sigma = math.log(sigma)
    roots = (0, *rest) if lead else tuple(rest)
    high, low = max(roots, default=0), min(roots, default=0)

    def product(block: range) -> list:
        if not roots:
            return [1.0] * len(block)
        first, last, size = block[0], block[-1], len(block)
        top = max(abs(first), abs(last)) + n
        risky = n and (n * log_sigma < _LOG_MIN + 1 or n * (log_sigma + math.log(top)) > _LOG_MAX - 1)
        F = list(map(sigma.__mul__, range(first - high, last - low + 1)))  # F[high - r + j] = (block[j] - r) sigma
        if first <= high and low <= last:
            F[high - first] = sigma  # t = 0 is a factor of zero cells only, set below; nonzero, it keeps them in range
        acc, bad = None, set()
        for i, r in enumerate(roots):
            factors = islice(F, high - r, high - r + size)
            acc = map(mul, acc, factors) if i else factors
            if risky and (i or not lead):
                acc = list(acc)
                if not (tiny <= min(map(abs, acc)) and max(map(abs, acc)) < inf):
                    bad.update(j for j, a in enumerate(acc) if not tiny <= abs(a) < inf)
        acc = list(acc)
        for j in bad:
            acc[j] = _signed_exp(*basic_polynomial_value_log(c, n, first + j))
        for r in roots:
            if first <= r <= last:
                acc[r - first] = 0.0
        return acc

    for block in _blocks(ms):
        try:
            values = product(block)
        except OverflowError:  # an m past the float range: cell by cell, so that it raises at its own cell
            values = chain.from_iterable(product(block[j : j + 1]) for j in range(len(block)))
        yield from values


def basic_polynomial_column(c: Correspondence, n: int, ms) -> Iterator:
    """basic_polynomial_value(c, n, m) for each int m of the iterable ms.

    With an int or Fraction sigma each value is an exact Fraction; with a
    float sigma it is a float computed as an iterative product, +0.0 at the
    zeros, in blocks: a step-1 range in slices of at most _BLOCK cells, any
    other iterable cell by cell. Once the running product leaves the normal
    double range the value is re-derived from basic_polynomial_value_log and
    rounded once: +-inf, +-0.0 or a subnormal past the range.
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

    It supports what the exact engine does to its numerators: adding,
    subtracting and multiplying ints and Gaussian integers, the exact
    quotient by a divisor, powers and the zero test.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re, self.im = re, im

    def __add__(self, other):
        if isinstance(other, _GaussianInt):
            return _GaussianInt(self.re + other.re, self.im + other.im)
        return _GaussianInt(self.re + other, self.im)

    __radd__ = __add__

    def __neg__(self):
        return _GaussianInt(-self.re, -self.im)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _GaussianInt):
            return _GaussianInt(
                self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
            )
        return _GaussianInt(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient by an int or Gaussian integer that divides self."""
        if isinstance(other, _GaussianInt):
            return self * _GaussianInt(other.re, -other.im) // _norm(other)
        return _GaussianInt(self.re // other, self.im // other)

    def __pow__(self, n: int):
        out, base = _GaussianInt(1, 0), self
        while n:
            if n & 1:
                out *= base
            n >>= 1
            if n:
                base *= base
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


def _term_count(unit: Correspondence, log_q: float, m: int, target: float, start: int | None = None) -> int:
    """Fewest terms N whose tail, estimated with lgamma, is at most e^target; past the budget if none is.

    unit is the correspondence at sigma 1. The bound falls monotonically once
    finite, so bisection finds N in O(log budget) evaluations; from a start
    near N, such as the last cell's, the search gallops out to a bracket of
    N and bisects that, to the same N in O(log |N - start|).
    """
    kind = unit.kind
    step = len(_lattice_chains(kind, m))

    def fits(n: int) -> bool:
        logs = [j * log_q + basic_polynomial_value_log(unit, j, m)[1] - math.lgamma(j + 1)
                for j in range(n, n + step)]
        return _log_tail(kind, log_q, m, n, logs) <= target

    lo, hi = 0, _TERM_BUDGET + 2  # N is in lo..hi, and is _TERM_BUDGET + 2 where no count fits
    if start is not None:  # gallop from start, doubling the step, to a bracket of N
        gap = 1
        if fits(start):
            hi = start
            while hi - gap >= 0 and fits(hi - gap):
                hi, gap = hi - gap, 2 * gap
            lo = max(0, hi - gap + 1)
        else:
            while start + gap < hi and not fits(start + gap):
                start, gap = start + gap, 2 * gap
            lo, hi = start + 1, min(hi, start + gap)
    return bisect_left(range(_TERM_BUDGET + 2), True, lo, hi, key=fits)


def _merge(left, right):
    """(A, B, T) of two adjacent runs of a chain joined: the right run scales by the left's A/B."""
    A1, B1, T1 = left
    A2, B2, T2 = right
    return A1 * A2, B1 * B2, T1 * B2 + A1 * T2


def _unmerge(whole, right):
    """The left run of _merge(left, right), divided out exactly; None where right's A is 0, so left's is lost."""
    A, B, T = whole
    A2, B2, T2 = right
    if not A2:
        return None
    A1 = A // A2
    return A1, B // B2, (T - A1 * T2) // B2


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


def _resized(kind: Kind, P, Q: int, m: int, chains, N0: int, N1: int):
    """The chains of the sum of the first N0 terms at m, moved to N1 terms.

    Chain i holds the terms n = i mod step as (A, B, T): A/B the first term
    not summed (P^e L_e(m) / (Q^e e!) at its next index e), T/B the chain's
    sum. The split of the run between N0 and N1 is merged in, or divided out;
    None where a divided run holds a zero factor. The integers depend on
    (m, N1) only, however they were reached.
    """
    step = len(chains)
    Ps, Qs = P**step, Q**step

    def ratio(run: range):  # p_n = P^step L_(n+step)/L_n, q_n = Q^step (n+1)...(n+step)
        rising = map(math.perm, range(run.start + step, run.stop + step, step), repeat(step))
        return [Ps * s for s in _lattice_steps(kind, m, run)], [Qs * f for f in rising]

    lo, hi = min(N0, N1), max(N0, N1)
    out = []
    for i, chain in enumerate(chains):
        run = range(lo + (i - lo) % step, hi, step)
        if run:
            chain = (_merge if N1 > N0 else _unmerge)(chain, _split(ratio, run))
            if chain is None:
                return None
        out.append(chain)
    return out


def _first_order_step(P, Q: int, m: int, N: int, chain, up: bool):
    """The right chain at m + 1 (up) or m - 1 from the chain at m, both with N terms; None at a zero divisor.

    The truncated sum S_N obeys S_N(m+1) = S_N(m) + (P/Q) S_(N-1)(m), from
    L_n(m+1) - L_n(m) = n L_(n-1)(m). In the integers B = Q^N N!,
    A = P^N L_N(m): T(m+1) = (Q+P) T(m)/Q - N A(m)/(m-N+1), and
    A(m+1) = A(m) (m+1)/(m-N+1). Down is that step solved for T(m-1).
    """
    A, B, T = chain
    if up:
        d = m - N + 1
        return (A * (m + 1) // d, B, (Q + P) * T // Q - N * A // d) if d else None
    if not m:
        return None
    return A * (m - N) // m, B, Q * (T + N * A // m) // (Q + P)


def _second_order_step(P, Q: int, m: int, N: int, before, here):
    """The symmetric chains at m + 1 from those at m - 1 and m, all with N terms; None at a zero divisor.

    S_N(m+1) = S_N(m-1) + 2 (P/Q) S_(N-1)(m), from L_n(m+1) - L_n(m-1) =
    2n L_(n-1)(m), taken chain by chain: a parity's sum at m + 1 is its sum at
    m - 1 plus 2P/Q times the other parity's at m, less the term N - 1. The A
    follow from L_n(m-1) m = (m-1)(m-n+1) L_(n-1)(m) and
    L_n(m+1) m = (m+1)(m+n-1) L_(n-1)(m); where the first is 0 = 0 at
    m = N - 1, L_m(m) = 2^(m-1) m! instead.
    """
    low = (m - 1) * (m - N + 1)
    if N < 1 or not m or not low and m != N - 1:
        return None
    i = N % 2  # the chain whose next index is N; the other's is N + 1
    (Ai, Bi, Ti), (_, Bj, Tj) = before[i], before[1 - i]
    g = Ai * m // low if low else P**N * (math.factorial(m) << (m - 1))  # P^N L_(N-1)(m)
    Ti += 2 * P * here[1 - i][2] // (Q * Q * (N + 1)) - 2 * N * g
    Tj += 2 * P * (N + 1) * here[i][2]
    chains = [None, None]
    chains[i] = g * ((m + 1) * (m + N - 1)) // m, Bi, Ti
    chains[1 - i] = P * here[i][0] * ((m + 1) * (m + N)) // m, Bj, Tj
    return chains


class _Walk:
    """The exact chains of a column's last summed cells, walked to the next cell.

    A cell at (m, N) takes the chains of the last cell at m, or of the last
    cells one step away, moved to N; the latter then step to m by the delta
    recurrence of the truncated sum. Right/left step from one cell (left at
    (m, P) has the chains of right at (-m, -P)); symmetric, whose recurrence
    has second order, from two (down at (m, P) is up at (-m, -P)). Where no
    cell is at hand, a move would divide by 0, or the moved run is longer
    than N, the chains are split afresh.
    """

    def __init__(self, kind: Kind, P, Q: int):
        self.kind, self.P, self.Q = kind, P, Q
        self.cells = []  # (m, N, chains) of the last one or two summed cells, adjacent, the newest last

    def chains(self, m: int, N: int):
        kind, P, Q, cells = self.kind, self.P, self.Q, self.cells
        order = 2 if kind is Kind.SYMMETRIC else 1
        if cells and cells[-1][0] == m:
            use = cells[-1:]
        elif len(cells) >= order and m - cells[-1][0] in (1, -1) and (
            order == 1 or m - cells[-1][0] == cells[-1][0] - cells[-2][0]
        ):
            use = cells[-order:]
        else:
            use = []
        # a cell moves to N unless the run to move is longer than N itself
        moved = [_resized(kind, P, Q, mc, ch, Nc, N) if abs(N - Nc) <= N else None for mc, Nc, ch in use]
        chains = None
        if use and None not in moved:
            m1 = use[-1][0]
            if m1 == m:
                chains = moved[-1]
            elif kind is Kind.SYMMETRIC:
                s = 1 if m > m1 else -1
                chains = _second_order_step(s * P, Q, s * m1, N, *moved)
            else:
                s = 1 if kind is Kind.RIGHT else -1
                step = _first_order_step(s * P, Q, s * m1, N, moved[0][0], s * (m - m1) > 0)
                chains = step and [step]
            if chains is not None and m1 != m:
                cells[-1] = (m1, N, moved[-1])
        if chains is None:
            starts = [(P**i * L, Q**i, P * 0) for i, L in enumerate(_lattice_chains(kind, m))]
            chains = _resized(kind, P, Q, m, starts, 0, N)
        if cells and cells[-1][0] == m:
            cells.pop()
        self.cells = (cells[-1:] if cells and abs(m - cells[-1][0]) == 1 else []) + [(m, N, chains)]
        return chains


def _cutoff_powers(kind: Kind, P, Q: int, a: int, last=None):
    """(a, (Q +- P)^a, Q^a), + for right: the integers of an exact_cutoff cell at |m| = a.

    The cell is sum_n C(a, n) (+-P/Q)^n = (Q +- P)^a / Q^a. Where last, the
    triple of another cell, has the exponent a - 1 or a + 1, its powers take
    one more factor or give one up by an exact division; else they are
    raised afresh.
    """
    base = Q + (P if kind is Kind.RIGHT else -P)
    if last is not None:
        b, num, den = last
        if a == b + 1:
            return a, num * base, den * Q
        if a == b - 1 and base:
            return a, num // base, den // Q
    return a, base**a, Q**a


def exponential_series_column(c: Correspondence, k, ms, tol: float) -> Iterator:
    """exponential_series_exact(c, k, m, tol) for each int m of ms, lazily, as (value, status).

    Each cell has its own status, first N, doubling loop and acceptance
    test; only the way to the exact chains differs: from the last summed
    cells by the delta recurrence where one step reaches the cell, else a
    fresh split (see _Walk). The chains are the same integers either way, so
    every value is the same. An exact_cutoff cell is the binomial theorem.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _series_cells(c.kind, *_momentum_ratio(k, c.sigma), ms, tol)


def _series_cells(kind: Kind, P, Q: int, ms, tol: float):
    """The cells of exponential_series_column at k sigma = P/Q, each as exponential_series_exact describes."""
    log_q, accept = _log_abs(P) - math.log(Q), math.log(tol / (1 + tol))
    walk, closed, unit, last_N = _Walk(kind, P, Q), None, Correspondence(kind, 1), None
    cut = None  # _cutoff_powers of the last exact_cutoff cell
    for m in ms:
        m = int(m)
        status = _series_status(kind, P, Q, m)
        if status is SummationStatus.EXACT_CUTOFF and P and abs(m) >= _TERM_BUDGET:
            yield math.nan, SummationStatus.UNSUMMED  # |m| + 1 terms, past the budget
            continue
        if status is SummationStatus.EXACT_CUTOFF:
            cut = _cutoff_powers(kind, P, Q, abs(m), cut)
            yield _to_float(*cut[1:]), status
            continue
        if status is not SummationStatus.CONVERGED:
            yield math.nan, status
            continue
        if closed is None:
            closed = _closed_base(kind, _to_float(P, Q))
        base, sign = closed
        if not base:  # k sigma rounds to -1 (right) or 1 (left): some 1e16 terms
            yield math.nan, SummationStatus.UNSUMMED
            continue
        N = _term_count(unit, log_q, m, accept - math.log(4) + sign * m * math.log(abs(base)), last_N)
        while N <= _TERM_BUDGET:
            chains = walk.chains(m, N)
            num, den = P * 0, 1
            for _, B, T in chains:
                num, den = num * B + T * den, den * B
            log_sum = _log_abs(num) - math.log(den)
            tail = _log_tail(kind, log_q, m, N, [_log_abs(A) - math.log(B) for A, B, _ in chains])
            if tail == -math.inf or tail - log_sum <= accept:  # a finite sum may be exactly 0
                yield _to_float(num, den), status
                last_N = N
                break
            N = max(_term_count(unit, log_q, m, accept - math.log(4) + log_sum, N), 2 * N)
        else:
            yield math.nan, SummationStatus.UNSUMMED


def exponential_series_exact(
    c: Correspondence, k, m: int, tol: float
) -> tuple[complex, SummationStatus]:
    """Sum k^n/n! times the basic values at m exactly; (value, status): exponential_series_column at m.

    The status is the theorem of _series_status. The first N terms, N chosen
    from the term magnitudes and the closed form's size, are summed by binary
    splitting and accepted once the certified tail is 0 or at most
    tol (|S| - tail); else only the terms past N are split and merged in. The value is the exact
    sum correctly rounded (+-inf or 0.0 past the double range; complex for a
    complex k); nan when diverged or `unsummed` (over _TERM_BUDGET terms).
    """
    return next(exponential_series_column(c, k, (m,), tol))
