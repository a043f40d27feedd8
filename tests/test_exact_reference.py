"""The integer `Polynomial` and the shift-sum operators against Fraction references.

`FractionPolynomial` keeps every coefficient as a reduced `Fraction` and runs
each operation coefficient by coefficient in `Fraction` arithmetic; the
reference beta formulas are the per-kind closed forms: a shift by -sigma
(right), by +sigma (left) and the inverse of the shift average (symmetric),
and the reference delta is the stencil's sum of shifted copies
sum_n a_n p(x + n sigma) / (N sigma).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from umbralqm import DeltaOperator, Kind, Polynomial, apply_beta, apply_delta, polynomials
from umbralqm.operators import Correspondence
from umbralqm.polynomials import _TABLE_DEGREE, shift_sum


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
SETTINGS = settings(max_examples=60)


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


@settings(max_examples=40)
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


@st.composite
def stencils(draw):
    """A valid delta stencil on offsets in [-3, 3]: weights summing to 0, N from the first moment."""
    offsets = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=5, unique=True))
    weights = [draw(st.fractions(-5, 5, max_denominator=12)) for _ in offsets[1:]]
    terms = dict(zip(offsets[1:], weights))
    terms[offsets[0]] = -sum(weights, Fraction(0))
    moment = sum(n * a for n, a in terms.items())
    assume(moment != 0)
    normalizer = math.ceil(abs(moment))
    return {n: a * normalizer / moment for n, a in terms.items()}, normalizer


THREE_POINT_FORWARD = ({0: Fraction(-3, 2), 1: Fraction(2), 2: Fraction(-1, 2)}, 1)
SIGMAS = [1, Fraction(1, 3), Fraction(2, 7), Fraction(0.2)]


@settings(max_examples=60)
@given(
    stencils(),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=41),
    st.sampled_from(SIGMAS),
)
@example(THREE_POINT_FORWARD, [Fraction(1, k + 1) for k in range(41)], Fraction(0.2))
@example(THREE_POINT_FORWARD, [Fraction(k - 20, 3 + k % 7) for k in range(41)], Fraction(2, 7))
def test_delta_matches_the_sum_of_shifted_copies(stencil, coeffs, sigma):
    terms, normalizer = stencil
    ref = FractionPolynomial(coeffs)
    expected = FractionPolynomial()
    for n, a in terms.items():
        expected = expected + ref.shift(n * sigma) * a
    d = DeltaOperator(terms, normalizer, sigma)
    assert_same(apply_delta(d, Polynomial(coeffs)), expected * (Fraction(1, normalizer) / sigma))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("coeffs", [[], [Fraction(-7, 3)]], ids=["zero", "constant"])
def test_zero_and_constants_through_shift_delta_and_beta(coeffs, sigma):
    p = Polynomial(coeffs)
    assert p.shift(sigma) == p.shift(-0.2) == p
    assert apply_delta(DeltaOperator(*THREE_POINT_FORWARD, sigma), p) == Polynomial()
    for kind in Kind:
        c = Correspondence(kind, sigma)
        assert apply_delta(DeltaOperator.for_correspondence(c), p) == Polynomial()
        assert apply_beta(c, p) == p


# The kernel itself, `shift_sum`, on offsets and weights no lattice operator uses. Its inverse
# reads cached rows up to degree _TABLE_DEGREE and the moments above it, so degrees run to 80.
KERNEL_SHIFTS = (0, 1, Fraction(2, 7), Fraction(1, 3), Fraction(0.2), Fraction(7, 2))
FORWARD_WEIGHTS = (
    {1: 1},
    {1: Fraction(3, 2), -1: Fraction(-3, 2)},
    {0: Fraction(-3, 2), 1: 2, 2: Fraction(-1, 2)},
    {-3: Fraction(5, 7), 0: 0, 2: -4, 5: Fraction(1, 9)},
)
# S^-1 needs integer moments sum_n n^k a_n with mu_0 = 1: integer weights summing to 1, and halves
# whose moments stay integers. Twelve weights, more than the kernel keeps row tables for.
INVERSE_WEIGHTS = (
    {1: 1, 0: 0},
    {-1: 1, 0: 0},
    {1: Fraction(1, 2), -1: Fraction(1, 2)},
    {2: Fraction(1, 2), 0: Fraction(1, 2)},
    {2: 3, -1: -2, 0: 0},
    {3: -1, 1: 2, -2: 0},
    {-2: 4, 1: -3},
    *({k: k + 1, -1: -k} for k in range(2, 7)),
)


def reference_sum(ref, s, weights):
    """sum_n a_n p(x + n s), each shift a Fraction binomial expansion."""
    out = FractionPolynomial()
    for n, a in weights.items():
        out = out + ref.shift(n * s) * a
    return out


def kernel_cases(seed, count):
    """(coefficients, s, weights, inverse) with degrees 0-80, the high and low ones interleaved."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        degree = rng.choice((rng.randint(0, 12), rng.randint(50, 80), rng.randint(0, 80)))
        coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(degree + 1)]
        inverse = i % 3 != 0
        weights = rng.choice(INVERSE_WEIGHTS if inverse else FORWARD_WEIGHTS)
        cases.append((coeffs, rng.choice(KERNEL_SHIFTS), weights, inverse))
    return cases


def test_shift_sum_matches_the_binomial_reference_in_any_call_order():
    cases = kernel_cases(23, 45)
    tabled = {tuple(w.items()) for c, s, w, inverse in cases if inverse and s and len(c) <= _TABLE_DEGREE + 1}
    assert len(tabled) > 8  # more weights than tables kept, so some are dropped and built again
    results = []
    for coeffs, s, weights, inverse in cases:
        out = shift_sum(Polynomial(coeffs), s, weights, inverse)
        ref = FractionPolynomial(coeffs)
        if inverse:  # S (S^-1 p) = p, S expanded by the reference
            assert reference_sum(FractionPolynomial(out.coeffs), s, weights).coeffs == ref.coeffs
        else:
            assert_same(out, reference_sum(ref, s, weights))
        results.append(out)
    by_degree = sorted(range(len(cases)), key=lambda i: -len(cases[i][0]))  # highest degree first
    for order in (by_degree, by_degree[::-1], random.Random(5).sample(range(len(cases)), len(cases))):
        polynomials._row_table.cache_clear()
        for i in order:
            coeffs, s, weights, inverse = cases[i]
            assert shift_sum(Polynomial(coeffs), s, weights, inverse) == results[i]
        assert polynomials._row_table.cache_info().currsize <= 8


def test_a_high_degree_beta_keeps_no_table():
    polynomials._row_table.cache_clear()
    c, third = Correspondence(Kind.SYMMETRIC, Fraction(1, 3)), Fraction(1, 3)
    p = Polynomial([Fraction(k - 150, 1 + k % 7) for k in range(301)])
    q = apply_beta(c, p)
    assert polynomials._row_table.cache_info().currsize == 0  # degree 300 reads the moments, not a table
    assert (q.shift(third) + q.shift(-third)) * Fraction(1, 2) == p
    apply_beta(c, Polynomial.monomial(5))
    assert polynomials._row_table.cache_info().currsize == 1
    rows = polynomials._row_table(2, ((-1, 1), (1, 1)))  # the table just built: weights 1/2 at -1 and 1
    assert polynomials._row_table.cache_info().currsize == 1
    assert [len(row) for row in rows] == list(range(_TABLE_DEGREE, -1, -1))
    assert rows[0] == [1 - k % 2 for k in range(1, _TABLE_DEGREE + 1)]  # mu_1 .. mu_63 of S = cosh(s D)
    for weights in INVERSE_WEIGHTS:
        shift_sum(Polynomial.monomial(3), Fraction(2, 7), weights, inverse=True)
    assert polynomials._row_table.cache_info().currsize == 8


@pytest.mark.parametrize("degree", [3, 70])  # a row table and the moments
@pytest.mark.parametrize("s", [1, Fraction(2, 7), 0])
@pytest.mark.parametrize(
    "weights", [{1: Fraction(1, 3), 0: Fraction(2, 3)}, {0: 2}], ids=["fractional-moments", "mu0-is-2"]
)
def test_shift_sum_refuses_weights_it_cannot_invert(weights, s, degree):
    # the first S maps x to x + s/3, its moments past mu_0 are 1/3; the second S doubles p
    p = Polynomial([Fraction(k - 1, 1 + k % 5) for k in range(degree + 1)])
    with pytest.raises(ValueError, match="integer moments"):
        shift_sum(p, s, weights, inverse=True)
    assert_same(shift_sum(p, s, weights), reference_sum(FractionPolynomial(p.coeffs), s, weights))  # S itself applies
