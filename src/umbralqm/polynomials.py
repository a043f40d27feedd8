"""Exact univariate polynomial arithmetic over the rationals.

Coefficients, indexed by degree, are integers over one positive denominator in
lowest terms, read as `fractions.Fraction`s through `coeffs`, so every operator
identity in this package can be checked with no rounding anywhere. The zero
polynomial has degree -1 by convention, which keeps degree bookkeeping uniform.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm


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
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

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
        return cls((0,) * degree + (coefficient,))

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
        scale = Fraction(other)
        return _reduced([n * scale.numerator for n in self._num], self._den * scale.denominator)

    __rmul__ = __mul__

    def times_x(self) -> "Polynomial":
        """Multiply by the coordinate, i.e. apply the operator X."""
        return _reduced([0, *self._num], self._den)

    def shift(self, s) -> "Polynomial":
        """Translate the argument: p(x) -> p(x + s), expanded exactly."""
        return scaled_integer_map(self, s, _taylor_shift)

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


def scaled_integer_map(p: Polynomial, s, kernel) -> Polynomial:
    """Apply an operator f(s d/dx) to p by running an integer kernel.

    With p = sum_i n_i x^i / D and s = u/v in lowest terms, g(y) = D v^deg p(y/v)
    has the integer coefficients n_i v^(deg-i), and f(s d/dx) p becomes
    f(u d/dy) g. `kernel(g, u)` rewrites the list g in place as that image in
    integers, keeping the degree; the output is reduced once.
    """
    s = Fraction(s)
    if p.is_zero or not s:
        return p
    powers = [s.denominator**k for k in range(p.degree + 1)]
    g = [n * w for n, w in zip(p._num, reversed(powers))]
    kernel(g, s.numerator)
    return _reduced([h * w for h, w in zip(g, powers)], p._den * powers[-1])


def _taylor_shift(g: list, u: int) -> None:
    # g(y) -> g(y + u) by deg passes of synthetic division (Horner's triangle).
    deg = len(g) - 1
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            g[j] += u * g[j + 1]
