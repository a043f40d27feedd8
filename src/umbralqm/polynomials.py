"""Exact univariate polynomial arithmetic over the rationals.

Coefficients, indexed by degree, are integers over one positive denominator in
lowest terms, read as `fractions.Fraction`s through `coeffs`, so every operator
identity in this package can be checked with no rounding anywhere. The zero
polynomial has degree -1 by convention, which keeps degree bookkeeping uniform.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
from math import comb, gcd, lcm
from operator import floordiv, mul

_TABLE_DEGREE = 63  # highest input degree whose S^-1 reads cached rows; see shift_sum and the README


def _exact(x) -> Fraction:
    """x as a Fraction; one ValueError for NaN, an infinity or any other non-rational."""
    try:
        return x if isinstance(x, Fraction) else Fraction(x)
    except (OverflowError, ValueError):
        raise ValueError(f"exact arithmetic needs a finite rational, not {x!r}") from None


def _reduced(nums: list, den: int) -> "Polynomial":
    """The polynomial sum_i nums[i] x^i / den, for den > 0: trimmed and reduced by one gcd."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    p = object.__new__(Polynomial)
    p._num, p._den = (tuple(nums), den) if g == 1 else (tuple(n // g for n in nums), den // g)
    return p


class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be non-negative")
        c = _exact(coefficient)
        return _reduced([0] * degree + [c.numerator], c.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def max_abs_coefficient(self) -> Fraction:
        return Fraction(max(map(abs, self._num), default=0), self._den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = lcm(self._den, other._den)
        a = [n * (den // self._den) for n in self._num]
        b = [n * (den // other._den) for n in other._num]
        return _reduced([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __neg__(self) -> "Polynomial":
        return _reduced([-n for n in self._num], self._den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [0] * (len(self._num) + len(other._num) - 1)
            for i, a in enumerate(self._num):
                if not a:
                    continue
                for j, b in enumerate(other._num, i):
                    out[j] += a * b
            return _reduced(out, self._den * other._den)
        scale = _exact(other)
        return _reduced([n * scale.numerator for n in self._num], self._den * scale.denominator)

    __rmul__ = __mul__

    def times_x(self) -> "Polynomial":
        """Multiply by the coordinate, i.e. apply the operator X."""
        return _reduced([0, *self._num], self._den)

    def shift(self, s) -> "Polynomial":
        """Translate the argument: p(x) -> p(x + s), expanded exactly."""
        return shift_sum(self, s, {1: 1})

    def __call__(self, point):
        """Evaluate by Horner's rule; at an int or Fraction point, on the integers with one division."""
        if not isinstance(point, (int, Fraction)) or self.is_zero:
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * point + c
            return acc
        a, b = point.numerator, point.denominator
        acc, power = self._num[-1], 1
        for n in reversed(self._num[:-1]):
            power *= b
            acc = acc * a + n * power
        return Fraction(acc, self._den * power)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


def _moments(den: int, ints: tuple, count: int) -> list[int]:
    """mu_k = sum_n n^k a_n for k < count, a_n = ints[n] / den; a ValueError unless integers with mu_0 = 1."""
    sums = [sum(n**k * a for n, a in ints) for k in range(count)]
    if sums[0] != den or any(x % den for x in sums):
        begin = ", ".join(str(Fraction(x, den)) for x in sums[:4])
        raise ValueError(f"S^-1 needs integer moments mu_k = sum_n n^k a_n with mu_0 = 1; these begin {begin}")
    return [x // den for x in sums]


@lru_cache(maxsize=8)
def _row_table(den: int, ints: tuple) -> list[list[int]]:
    """The rows of S = sum_n (ints[n] / den) T^(n s) to degree _TABLE_DEGREE, in h_i = g_i u^i.

    Row j holds C(j + k, j) mu_k for k = 1 .. _TABLE_DEGREE - j; they hold no u, so one table
    serves every spacing. At most 8 tables are kept, the least recently used dropped first.
    """
    mu = _moments(den, ints, _TABLE_DEGREE + 1)
    return [[comb(j + k, j) * mu[k] for k in range(1, _TABLE_DEGREE + 1 - j)] for j in range(_TABLE_DEGREE + 1)]


def shift_sum(p: Polynomial, s, terms, inverse: bool = False) -> Polynomial:
    """Apply S = sum_n a_n T^(n s), or S^-1, to p exactly; T^(n s) p(x) = p(x + n s).

    `terms` maps integer offsets n to int or Fraction weights a_n. With s = u/v, T^(n s)
    shifts g(y) = D v^deg p(y/v), whose coefficients are the integers n_i v^(deg-i), by n u:
    one Horner triangle per term, the a_n over one denominator. S is the series
    sum_k mu_k (s D)^k / k! in the moments mu_k = sum_n n^k a_n, so in h_i = g_i u^i it is
    the triangle h_j <- sum_(i >= j) C(i, j) mu_(i-j) h_i, which holds no u. S^-1 needs
    integer moments with mu_0 = 1, and refuses other weights with a ValueError whatever p
    and s; at s = 0 it returns p. It solves the triangle from the top degree down, reading
    the rows of _row_table up to degree _TABLE_DEGREE and the moments above it, and divides
    each h_j exactly by u^j.
    """
    s = _exact(s)
    den = lcm(*(a.denominator for a in terms.values()))
    ints = {n: a.numerator * (den // a.denominator) for n, a in terms.items()}
    u, deg = s.numerator, p.degree
    if inverse:
        key = tuple(sorted(ints.items()))
        rows = _row_table(den, key) if deg <= _TABLE_DEGREE else None
        mu = None if rows else _moments(den, key, deg + 1)
    if p.is_zero or (inverse and not u):  # at s = 0, S = mu_0 = 1
        return p
    powers = list(accumulate(repeat(s.denominator, deg), mul, initial=1))
    g = [n * w for n, w in zip(p._num, reversed(powers))]
    if inverse:
        scale = list(accumulate(repeat(u, deg), mul, initial=1))
        h = list(map(mul, g, scale))
        for j in range(deg - 1, -1, -1):  # h above j is solved
            if rows:
                h[j] -= sum(map(mul, rows[j], h[j + 1:]))
            else:
                h[j] -= sum(comb(i, j) * mu[i - j] * h[i] for i in range(j + 1, deg + 1) if mu[i - j])
        out, den = list(map(floordiv, h, scale)), 1
    else:
        out = [0] * (deg + 1)
        for n, a in ints.items():
            h, w = [a * c for c in g], n * u
            for i in range(deg if w else 0):  # h(y) -> h(y + w), one synthetic division per pass
                acc = h[deg]
                for j in range(deg - 1, i - 1, -1):
                    h[j] = acc = h[j] + w * acc
            out = [c + x for c, x in zip(out, h)]
    return _reduced([c * w for c, w in zip(out, powers)], p._den * powers[-1] * den)
