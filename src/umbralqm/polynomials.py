"""Exact univariate polynomial arithmetic over the rationals.

Coefficient vectors are tuples of `fractions.Fraction` indexed by degree, so
every operator identity in this package can be checked with no rounding
anywhere. The zero polynomial has degree -1 by convention, which keeps the
degree bookkeeping of difference operators uniform.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

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
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def max_abs_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        scale = _frac(other)
        return Polynomial(tuple(c * scale for c in self.coeffs))

    __rmul__ = __mul__

    def times_x(self) -> "Polynomial":
        """Multiply by the coordinate, i.e. apply the operator X."""
        if self.is_zero:
            return self
        return Polynomial((Fraction(0),) + self.coeffs)

    def shift(self, s) -> "Polynomial":
        """Translate the argument: p(x) -> p(x + s), expanded exactly."""
        return scaled_integer_map(self, s, _taylor_shift)

    def __call__(self, point):
        """Evaluate by Horner's rule; exact at rational points."""
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * point + a
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


def scaled_integer_map(p: Polynomial, s, kernel) -> Polynomial:
    """Apply an operator f(s d/dx) to p by running an integer kernel.

    With D the common denominator of p's coefficients and s = u/v in lowest
    terms, g(y) = D v^deg p(y/v) has integer coefficients and f(s d/dx) p
    becomes f(u d/dy) g. `kernel(g, u)` rewrites the list g in place as that
    image in integers, keeping the degree; only the output is gcd-reduced.
    """
    s = _frac(s)
    if p.is_zero or not s:
        return p
    common = lcm(*(c.denominator for c in p.coeffs))
    scales = [common * s.denominator ** (p.degree - i) for i in range(p.degree + 1)]
    g = [c.numerator * (d // c.denominator) for c, d in zip(p.coeffs, scales)]
    kernel(g, s.numerator)
    return Polynomial([Fraction(h, d) for h, d in zip(g, scales)])


def _taylor_shift(g: list, u: int) -> None:
    # g(y) -> g(y + u) by deg passes of synthetic division (Horner's triangle).
    deg = len(g) - 1
    for i in range(deg):
        for j in range(deg - 1, i - 1, -1):
            g[j] += u * g[j + 1]
