"""Exact operator calculus: shifts, delta operators, Pincherle derivatives, beta/xi."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralqm import (
    Correspondence,
    DeltaOperator,
    InvalidDeltaError,
    Kind,
    Polynomial,
    apply_beta,
    apply_delta,
    apply_xi,
    basic_polynomial,
    basic_polynomial_value,
    check_delta_conditions,
    commutator_residual,
    left,
    pincherle_derivative,
    right,
    symmetric,
    umbral_exp,
)
from umbralqm import invariants, operators
from umbralqm.polynomials import _TABLE_DEGREE, shift_sum

ALL_KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def fraction_shift(p, s):
    """Oracle for p(x + s): the binomial expansion summed term by term in Fractions."""
    s = Fraction(s)
    out = [Fraction(0)] * (p.degree + 1)
    for i, a in enumerate(p.coeffs):
        for j in range(i + 1):
            out[j] += a * math.comb(i, j) * s ** (i - j)
    return Polynomial(out)


# Up to degree 40 (the zero polynomial included) with mixed denominators.
polynomials = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=60), max_size=41
).map(Polynomial)
# Shift amounts: ints, rationals, zero and binary floats with long denominators.
shifts = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
    st.sampled_from([0.2, -0.2, 0.1, 2.5, -1e-3, 1 / 3]),
)
PROPERTY_SETTINGS = settings(max_examples=50)


def random_polynomial(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)])


class TestPolynomial:
    def test_zero_polynomial_has_degree_minus_one(self):
        assert Polynomial().degree == -1
        assert Polynomial([0, 0, 0]).degree == -1

    def test_leading_coefficient_nonzero_after_normalization(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs[-1] != 0

    def test_monomial_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            Polynomial.monomial(-1)

    def test_evaluation_is_exact_at_rational_points(self):
        p = Polynomial([Fraction(1, 3), 0, 1])
        assert p(HALF) == Fraction(1, 3) + Fraction(1, 4)

    def test_product_and_sum(self):
        p = Polynomial([1, 1])  # 1 + x
        assert p * p == Polynomial([1, 2, 1])
        assert p + Polynomial([-1, -1]) == Polynomial()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "use",
        [
            lambda x: Polynomial([1, x]),
            lambda x: Polynomial([1, 2]) * x,
            lambda x: x * Polynomial([1, 2]),
            lambda x: Polynomial([1, 2]).shift(x),
            lambda x: Polynomial().shift(x),
            lambda x: DeltaOperator({1: x, 0: -x}, 1, 1),
        ],
        ids=["coefficient", "times", "rtimes", "shift", "zero-shift", "stencil"],
    )
    def test_non_finite_exact_input_is_a_value_error(self, use, bad):
        with pytest.raises(ValueError, match="finite rational"):
            use(bad)

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, [1, 2]])
    def test_sum_and_difference_reject_non_polynomials(self, other):
        p = Polynomial([1, 2, 3])
        with pytest.raises(TypeError):
            p + other
        with pytest.raises(TypeError):
            p - other


class TestShift:
    def test_square_shift_by_one(self):
        assert Polynomial([0, 0, 1]).shift(1) == Polynomial([1, 2, 1])

    def test_constants_are_shift_fixed(self):
        assert Polynomial([7]).shift(Fraction(13, 5)) == Polynomial([7])

    def test_cube_shift_by_half(self):
        expected = Polynomial([Fraction(1, 8), Fraction(3, 4), Fraction(3, 2), 1])
        assert Polynomial([0, 0, 0, 1]).shift(HALF) == expected

    def test_shift_composition(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_polynomial(rng)
            assert p.shift(HALF).shift(-HALF) == p

    def test_shift_operators_commute(self):
        rng = random.Random(9)
        for _ in range(10):
            p = random_polynomial(rng)
            assert p.shift(HALF).shift(THIRD) == p.shift(THIRD).shift(HALF)

    @PROPERTY_SETTINGS
    @given(polynomials, shifts)
    @example(Polynomial(), Fraction(2, 7))
    @example(Polynomial([Fraction(1, k + 1) for k in range(41)]), 0.2)
    @example(Polynomial([Fraction(k - 20, 3 + k % 7) for k in range(41)]), Fraction(-2, 7))
    @example(Polynomial([1, Fraction(1, 3)]), 0)
    def test_integer_shift_matches_the_fraction_expansion(self, p, s):
        shifted = p.shift(s)
        assert shifted.coeffs == fraction_shift(p, s).coeffs
        assert all(type(c) is Fraction for c in shifted.coeffs)


class TestDeltaOperator:
    def test_right_delta_on_x_is_one(self):
        d = DeltaOperator.right(1)
        assert apply_delta(d, Polynomial.x()) == Polynomial.one()

    def test_symmetric_delta_on_square(self):
        d = DeltaOperator.symmetric(1)
        assert apply_delta(d, Polynomial([0, 0, 1])) == Polynomial([0, 2])

    @pytest.mark.parametrize("builder", [DeltaOperator.right, DeltaOperator.left, DeltaOperator.symmetric])
    def test_constants_are_annihilated(self, builder):
        assert apply_delta(builder(THIRD), Polynomial([7])) == Polynomial()

    def test_degree_drops_by_exactly_one(self):
        rng = random.Random(11)
        for kind in ALL_KINDS:
            d = DeltaOperator.for_correspondence(Correspondence(kind, THIRD))
            for _ in range(15):
                p = random_polynomial(rng)
                if p.degree < 1:
                    continue
                assert apply_delta(d, p).degree == p.degree - 1

    def test_shift_invariance(self):
        rng = random.Random(13)
        for kind in ALL_KINDS:
            d = DeltaOperator.for_correspondence(Correspondence(kind, 1))
            for s in (1, HALF, Fraction(-2, 3)):
                for _ in range(5):
                    p = random_polynomial(rng)
                    assert apply_delta(d, p.shift(s)) == apply_delta(d, p).shift(s)

    def test_invalid_delta_is_rejected(self):
        bad = DeltaOperator({1: Fraction(1)}, 1, 1)  # coefficients do not sum to zero
        with pytest.raises(InvalidDeltaError):
            apply_delta(bad, Polynomial.x())

    def test_normalizer_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            DeltaOperator({1: Fraction(1), 0: Fraction(-1)}, 0, 1)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            DeltaOperator.right(0)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("builder", [DeltaOperator.right, DeltaOperator.left, DeltaOperator.symmetric])
    def test_sigma_must_be_finite(self, builder, sigma):
        with pytest.raises(ValueError, match="finite"):
            builder(sigma)
        with pytest.raises(ValueError, match="finite"):
            DeltaOperator({1: Fraction(1), 0: Fraction(-1)}, 1, sigma)


class TestDeltaConditions:
    def test_symmetric_passes(self):
        report = check_delta_conditions(DeltaOperator({1: 1, -1: -1}, 2, 1))
        assert report.coefficient_sum == 0
        assert report.weighted_sum == 2 == report.normalizer
        assert report.passed

    def test_right_passes(self):
        report = check_delta_conditions(DeltaOperator({1: 1, 0: -1}, 1, 1))
        assert report.passed

    def test_nonzero_coefficient_sum_fails(self):
        report = check_delta_conditions(DeltaOperator({1: 1, 0: 0}, 1, 1))
        assert report.coefficient_sum == 1
        assert not report.zero_sum_ok
        assert not report.passed


class TestPincherleDerivative:
    def test_right_delta_on_constant(self):
        d = DeltaOperator.right(1)
        assert pincherle_derivative(d, Polynomial.one()) == Polynomial.one()

    def test_right_delta_on_x(self):
        d = DeltaOperator.right(1)
        assert pincherle_derivative(d, Polynomial.x()) == Polynomial([1, 1])

    def test_coordinate_commutes_with_itself(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_polynomial(rng)
            assert pincherle_derivative(Polynomial.times_x, p) == Polynomial()

    def test_shift_operator_derivative_is_scaled_shift(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_polynomial(rng)
            derivative = pincherle_derivative(lambda q: q.shift(HALF), p)
            assert derivative == HALF * p.shift(HALF)


class TestCorrespondence:
    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 0, -1])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sigma_must_be_positive_and_finite(self, kind, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            Correspondence(kind, sigma)

    @pytest.mark.parametrize("kind", ["right", None, 1])
    def test_kind_must_be_a_kind(self, kind):
        # a str kind was accepted, and every Kind.X ... else dispatch read it as symmetric
        with pytest.raises(TypeError, match="kind must be a Kind"):
            Correspondence(kind, 1)

    def test_huge_exact_sigma_is_finite(self):
        assert right(Fraction(10**400)).sigma_exact() == 10**400

    def test_huge_exact_sigma_takes_only_the_exact_paths(self):
        c, sigma = right(Fraction(10**400)), 10**400
        assert basic_polynomial(c, 2) == Polynomial([0, -sigma, 1])
        assert basic_polynomial_value(c, 2, 3) == 6 * sigma**2
        with pytest.raises(ValueError, match="exact paths"):
            c.sigma_float()
        with pytest.raises(ValueError, match="exact paths"):
            umbral_exp(c, 0.5, 3)

    def test_equal_spacings_are_one_value_and_one_cache_entry(self):
        a, b = right(1), right(1.0)
        assert a == b and hash(a) == hash(b)
        assert DeltaOperator.for_correspondence(a) is DeltaOperator.for_correspondence(b)
        assert a != left(1) and a != right(2) and a != (Kind.RIGHT, 1)

    def test_fields_cannot_be_assigned(self):
        c = symmetric(Fraction(1, 3))
        with pytest.raises(AttributeError):
            c.sigma = 2
        with pytest.raises(AttributeError):
            c.kind = Kind.RIGHT
        with pytest.raises(AttributeError):
            del c.sigma
        assert c == symmetric(Fraction(1, 3))

    def test_copies_and_pickles_are_equal_values(self):
        c = left(0.3)
        assert copy.copy(c) == c and copy.deepcopy(c) == c and pickle.loads(pickle.dumps(c)) == c


class TestBetaAndXi:
    def test_symmetric_beta_fixes_x(self):
        assert apply_beta(symmetric(1), Polynomial.x()) == Polynomial.x()

    def test_symmetric_beta_on_square(self):
        assert apply_beta(symmetric(1), Polynomial([0, 0, 1])) == Polynomial([-1, 0, 1])

    def test_right_and_left_beta_are_shifts(self):
        assert apply_beta(right(1), Polynomial.x()) == Polynomial([-1, 1])
        assert apply_beta(left(1), Polynomial.x()) == Polynomial([1, 1])

    def test_symmetric_beta_inverts_the_shift_average(self):
        rng = random.Random(17)
        for sigma in (1, THIRD):
            c = symmetric(sigma)
            for _ in range(15):
                p = random_polynomial(rng)
                q = apply_beta(c, p)
                averaged = (q.shift(sigma) + q.shift(-sigma)) * HALF
                assert averaged == p

    @PROPERTY_SETTINGS
    @given(polynomials, st.sampled_from([0.2, 0.1, 0.3, 1 / 3, 2.5, Fraction(2, 7)]))
    @example(Polynomial([Fraction(1, k + 1) for k in range(41)]), 0.2)
    def test_symmetric_beta_round_trip_with_binary_float_sigma(self, p, sigma):
        q = apply_beta(symmetric(sigma), p)
        assert (q.shift(sigma) + q.shift(-sigma)) * HALF == p

    def test_xi_on_one_gives_x(self):
        assert apply_xi(symmetric(1), Polynomial.one()) == Polynomial.x()

    def test_right_xi_squared_gives_falling_product(self):
        c = right(1)
        p = apply_xi(c, apply_xi(c, Polynomial.one()))
        assert p == Polynomial([0, -1, 1])  # x(x - 1)

    def test_symmetric_xi_on_x_gives_square(self):
        assert apply_xi(symmetric(1), Polynomial.x()) == Polynomial([0, 0, 1])

    def test_xi_is_not_shift_invariant(self):
        # witness: p = 1, shift by sigma
        c = symmetric(1)
        p = Polynomial.one()
        assert apply_xi(c, p.shift(1)) != apply_xi(c, p).shift(1)

    @pytest.mark.parametrize("factory", [right, left, symmetric])
    def test_pincherle_derivative_of_delta_inverts_beta(self, factory):
        # beta's one check that reads no pincherle_weights: delta X - X delta through apply_delta,
        # on both sides of the degree where beta stops taking its table
        for c in (factory(THIRD), factory(0.2)):
            d = DeltaOperator.for_correspondence(c)
            for n in range(_TABLE_DEGREE + 11):
                p = Polynomial.monomial(n)
                assert pincherle_derivative(d, apply_beta(c, p)) == p
                assert apply_beta(c, pincherle_derivative(d, p)) == p


class TestCommutator:
    @pytest.mark.parametrize(
        "kind,degree", [(Kind.RIGHT, 8), (Kind.LEFT, 8), (Kind.SYMMETRIC, 32)]
    )
    def test_heisenberg_relation_is_exact(self, kind, degree):
        residual = commutator_residual(Correspondence(kind, 1), degree)
        assert residual == 0
        assert isinstance(residual, Fraction)

    def test_heisenberg_with_fractional_sigma(self):
        for kind in ALL_KINDS:
            assert commutator_residual(Correspondence(kind, THIRD), 12) == 0

    @pytest.mark.parametrize("degree,sigma", [(40, Fraction(2, 7)), (24, Fraction(0.2))])
    def test_heisenberg_and_lowering_at_benchmark_sizes(self, degree, sigma):
        assert invariants.heisenberg(degree, (sigma,)) is None
        assert invariants.lowering(degree, (sigma,)) is None

    def test_degree_max_must_be_positive(self):
        with pytest.raises(ValueError):
            commutator_residual(right(1), 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_beta_that_skips_its_solve_fails_the_heisenberg_check(self, kind, monkeypatch):
        # inside the kernel, S^-1 p = p for this kind's Pincherle weights only, so its xi is X
        # and [delta, xi] is the Pincherle derivative itself, not 1
        broken = DeltaOperator.for_correspondence(Correspondence(kind, 1)).pincherle_weights

        def skipping(p, s, terms, inverse=False):
            return p if inverse and terms == broken else shift_sum(p, s, terms, inverse)

        monkeypatch.setattr(operators, "shift_sum", skipping)
        for other in ALL_KINDS:
            residual = commutator_residual(Correspondence(other, THIRD), 6)
            assert (residual > 0) == (other is kind)
        assert invariants.heisenberg(6, (THIRD,)) == f"nonzero commutator residual for {kind.value}, sigma=1/3"
