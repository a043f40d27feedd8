"""The integer-over-denominator `Polynomial` and the stencil-derived beta against Fraction references.

`FractionPolynomial` keeps every coefficient as a reduced `Fraction` and runs
each operation coefficient by coefficient in `Fraction` arithmetic; the
reference beta formulas are the per-kind closed forms: a shift by -sigma
(right), by +sigma (left) and the inverse of the shift average (symmetric).
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralqm import Kind, Polynomial, apply_beta
from umbralqm.operators import Correspondence


class FractionPolynomial:
    """Reference: a tuple of reduced Fractions indexed by degree, with no trailing zero."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FractionPolynomial):
            if not self.coeffs or not other.coeffs:
                return FractionPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return FractionPolynomial(out)
        scale = Fraction(other)
        return FractionPolynomial(c * scale for c in self.coeffs)

    def times_x(self):
        return FractionPolynomial((0,) + self.coeffs) if self.coeffs else self

    def shift(self, s):
        s = Fraction(s)
        out = [Fraction(0)] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            for j in range(i + 1):
                out[j] += a * math.comb(i, j) * s ** (i - j)
        return FractionPolynomial(out)

    def invert_shift_average(self, s):
        # Solve ((T_s + T_-s)/2) q = p from the top degree: the average keeps only even gaps.
        s = Fraction(s)
        q = list(self.coeffs)
        for j in range(len(q) - 3, -1, -1):
            q[j] -= sum(math.comb(i, j) * s ** (i - j) * q[i] for i in range(j + 2, len(q), 2))
        return FractionPolynomial(q)

    def __call__(self, point):
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * point + a
        return acc

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


coefficients = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
coefficient_lists = st.lists(coefficients, max_size=41)
scalars = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
    st.sampled_from([0.2, -0.2, 0.1, 2.5, -1e-3, 1 / 3, 0.0]),
)
points = st.one_of(scalars, st.floats(min_value=-3, max_value=3, allow_nan=False))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_same(p, ref):
    assert p.coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.degree == ref.degree
    assert p.is_zero == (not ref.coeffs)
    assert repr(p) == repr(ref)
    rebuilt = Polynomial(ref.coeffs)  # equal values must have equal stored forms
    assert p == rebuilt and hash(p) == hash(rebuilt)


@SETTINGS
@given(coefficient_lists, coefficient_lists, scalars)
@example([], [1, 2], 3)
@example([Fraction(1, 3), 0.5, -7], [], Fraction(0))
@example([Fraction(1, k + 1) for k in range(41)], [Fraction(k - 20, 3 + k % 7) for k in range(41)], 0.2)
def test_arithmetic_matches_the_fraction_reference(a, b, scalar):
    p, q = Polynomial(a), Polynomial(b)
    rp, rq = FractionPolynomial(a), FractionPolynomial(b)
    assert_same(p, rp)
    assert_same(p + q, rp + rq)
    assert_same(p - q, rp - rq)
    assert_same(-p, -rp)
    assert_same(p * q, rp * rq)
    assert_same(p * scalar, rp * scalar)
    assert_same(scalar * p, rp * scalar)
    assert_same(p.times_x(), rp.times_x())
    assert_same(p.shift(scalar), rp.shift(scalar))
    assert p.max_abs_coefficient() == max((abs(c) for c in rp.coeffs), default=Fraction(0))


@SETTINGS
@given(coefficient_lists, points)
@example([], Fraction(1, 2))
@example([Fraction(1, k + 1) for k in range(41)], Fraction(-40, 13))
@example([1e-300, 3, 0.1], 1e200)
def test_evaluation_matches_the_fraction_reference(coeffs, point):
    value, expected = Polynomial(coeffs)(point), FractionPolynomial(coeffs)(point)
    if isinstance(point, float):
        assert repr(value) == repr(expected)
    else:
        assert value == expected


def test_equal_polynomials_from_different_spellings_hash_equal():
    p, q = Polynomial([Fraction(2, 4), 0]), Polynomial([0.5])
    assert p == q
    assert hash(p) == hash(q)


def test_zero_polynomial_evaluates_to_zero_at_a_rational_point():
    assert Polynomial()(Fraction(1, 2)) == 0


def test_product_with_the_zero_polynomial_is_zero():
    p = Polynomial([Fraction(1, 3), 2, 5])
    assert (p * Polynomial()).is_zero
    assert (Polynomial() * p) == Polynomial() == p * 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=41),
    st.sampled_from(list(Kind)),
    st.sampled_from([1, Fraction(1, 3), Fraction(2, 7), Fraction(0.2)]),
)
@example([Fraction(1, k + 1) for k in range(41)], Kind.SYMMETRIC, Fraction(0.2))
@example([Fraction(k - 20, 3 + k % 7) for k in range(41)], Kind.RIGHT, Fraction(0.2))
@example([Fraction(k - 20, 3 + k % 7) for k in range(41)], Kind.LEFT, Fraction(2, 7))
def test_beta_matches_the_per_kind_formulas(coeffs, kind, sigma):
    ref = FractionPolynomial(coeffs)
    expected = {
        Kind.RIGHT: lambda: ref.shift(-sigma),
        Kind.LEFT: lambda: ref.shift(sigma),
        Kind.SYMMETRIC: lambda: ref.invert_shift_average(sigma),
    }[kind]()
    assert_same(apply_beta(Correspondence(kind, sigma), Polynomial(coeffs)), expected)
