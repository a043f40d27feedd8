"""Basic polynomial sequences: coefficient forms, closed-form values, series transform."""

import math
import statistics
from fractions import Fraction

import pytest

from umbralqm import (
    Correspondence,
    DeltaOperator,
    EvaluationOverflow,
    Kind,
    Polynomial,
    SummationStatus,
    TaylorSeries,
    apply_delta,
    apply_xi,
    basic_polynomial,
    basic_polynomial_value,
    basic_polynomial_value_log,
    left,
    right,
    symmetric,
    umbral_transform,
    zeros_of_basic_polynomial,
)
from umbralqm.invariants import product_value

ALL_KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)
THIRD = Fraction(1, 3)
# lattice indices far out on both sides, plus every third index across the
# zero sets of degree <= 128
WIDE_MS = (*range(-2000, 2001, 89), *range(-131, 132, 3))


def product_form(kind, n, sigma):
    """Independent oracle: multiply the linear factors of the basic polynomial."""
    sigma = Fraction(sigma)
    if n == 0:
        return Polynomial.one()
    if kind is Kind.RIGHT:
        factors = [Polynomial([-i * sigma, 1]) for i in range(n)]
    elif kind is Kind.LEFT:
        factors = [Polynomial([i * sigma, 1]) for i in range(n)]
    else:
        factors = [Polynomial.x()]
        factors += [Polynomial([(2 * i - (n - 2)) * sigma, 1]) for i in range(n - 1)]
    out = Polynomial.one()
    for f in factors:
        out = out * f
    return out


class TestCoefficientForm:
    def test_degree_zero_is_one(self):
        for kind in ALL_KINDS:
            assert basic_polynomial(Correspondence(kind, THIRD), 0) == Polynomial.one()

    def test_right_degree_two(self):
        assert basic_polynomial(right(1), 2) == Polynomial([0, -1, 1])

    def test_symmetric_degree_three(self):
        assert basic_polynomial(symmetric(1), 3) == Polynomial([0, -1, 0, 1])

    def test_left_degree_two(self):
        assert basic_polynomial(left(1), 2) == Polynomial([0, 1, 1])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("sigma", [1, THIRD])
    def test_matches_factor_product(self, kind, sigma):
        c = Correspondence(kind, sigma)
        for n in range(13):
            assert basic_polynomial(c, n) == product_form(kind, n, sigma)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("sigma", [1, THIRD, Fraction(0.2)])
    def test_is_xi_iterated_on_one(self, kind, sigma):
        # the paper's definition B_n = xi^n 1, by repeated application of xi
        c = Correspondence(kind, sigma)
        p = Polynomial.one()
        for n in range(25):
            assert basic_polynomial(c, n) == p
            p = apply_xi(c, p)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vanishing_at_origin(self, kind):
        c = Correspondence(kind, 1)
        for n in range(1, 21):
            assert basic_polynomial(c, n)(0) == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("sigma", [1, THIRD])
    def test_delta_lowers_the_sequence(self, kind, sigma):
        c = Correspondence(kind, sigma)
        d = DeltaOperator.for_correspondence(c)
        for n in range(1, 21):
            assert apply_delta(d, basic_polynomial(c, n)) == n * basic_polynomial(c, n - 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            basic_polynomial(right(1), -1)


class TestClosedFormValues:
    def test_documented_values(self):
        assert basic_polynomial_value(right(1), 2, 3) == 6
        assert basic_polynomial_value(right(1), 2, 1) == 0
        assert basic_polynomial_value(symmetric(1), 3, 1) == 0
        assert basic_polynomial_value(symmetric(1), 4, 1) == -3

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("sigma", [1, THIRD])
    def test_exact_mode_matches_product_oracle(self, kind, sigma):
        c = Correspondence(kind, sigma)
        for n in range(21):
            poly = product_form(kind, n, sigma)
            for m in range(-20, 21):
                assert basic_polynomial_value(c, n, m) == poly(m * Fraction(sigma))
        for n in (40, 128):
            poly = product_form(kind, n, sigma)
            for m in WIDE_MS:
                assert basic_polynomial_value(c, n, m) == poly(m * Fraction(sigma))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float_mode_matches_product_oracle(self, kind):
        sigma = 0.2
        c = Correspondence(kind, sigma)
        for n in range(21):
            for m in (*range(-20, 21), *range(-15000, 15001, 97)):
                value = basic_polynomial_value(c, n, m)
                oracle = product_value(kind, n, m, sigma)
                if oracle == 0.0:
                    assert value == 0.0 and math.copysign(1.0, value) == 1.0
                else:
                    assert abs(value - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mirror_symmetry_between_right_and_left(self, kind):
        if kind is Kind.SYMMETRIC:
            for n in range(21):
                for m in range(-20, 21):
                    plus = basic_polynomial_value(symmetric(1), n, m)
                    minus = basic_polynomial_value(symmetric(1), n, -m)
                    assert minus == (-1) ** n * plus
        else:
            for n in range(21):
                for m in range(-20, 21):
                    lhs = basic_polynomial_value(left(1), n, m)
                    rhs = (-1) ** n * basic_polynomial_value(right(1), n, -m)
                    assert lhs == rhs

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_coefficient_form_evaluates_to_the_closed_form(self, kind):
        exact = Correspondence(kind, THIRD)
        for n in range(21):
            poly = basic_polynomial(exact, n)
            for m in range(-20, 21):
                assert poly(m * THIRD) == basic_polynomial_value(exact, n, m)
        floating = Correspondence(kind, 0.2)
        for n in range(21):
            poly = basic_polynomial(floating, n)
            for m in range(-20, 21):
                closed = basic_polynomial_value(floating, n, m)
                sampled = float(poly(Fraction(m) * Fraction(0.2)))
                if closed == 0.0:
                    assert sampled == 0.0
                else:
                    assert abs(sampled - closed) <= 1e-12 * abs(closed)

    def test_float_mode_overflow_raises(self):
        c = Correspondence(Kind.RIGHT, 1.0)
        with pytest.raises(EvaluationOverflow):
            basic_polynomial_value(c, 200, 400)

    def test_log_mode_covers_the_overflow_range(self):
        c = Correspondence(Kind.RIGHT, 1.0)
        sign, mag = basic_polynomial_value_log(c, 200, 400)
        assert sign == 1.0
        # oracle: lgamma form of the factorial ratio 400!/200!
        want = math.lgamma(401) - math.lgamma(201)
        assert abs(mag - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_log_mode_agrees_with_float_mode(self, kind):
        c = Correspondence(kind, 0.5)
        for n in range(1, 15):
            for m in range(-12, 13):
                value = basic_polynomial_value(c, n, m)
                sign, mag = basic_polynomial_value_log(c, n, m)
                if value == 0.0:
                    assert sign == 0.0 and mag == -math.inf
                else:
                    rebuilt = sign * math.exp(mag)
                    assert abs(rebuilt - value) <= 1e-10 * abs(value)
        for n in (1, 2, 3, 40, 128, 399, 400):
            integer = product_form(kind, n, 1)
            for m in WIDE_MS:
                exact = int(integer(m))
                sign, mag = basic_polynomial_value_log(c, n, m)
                if exact == 0:
                    assert sign == 0.0 and mag == -math.inf
                else:
                    want = math.log(abs(exact)) + n * math.log(0.5)
                    assert sign == (1.0 if exact > 0 else -1.0)
                    assert abs(mag - want) <= 1e-12 * max(1.0, abs(want))


class TestZeros:
    def test_right_zeros(self):
        assert zeros_of_basic_polynomial(right(1), 3) == [0, 1, 2]

    def test_left_zeros(self):
        assert zeros_of_basic_polynomial(left(1), 3) == [-2, -1, 0]

    def test_symmetric_zeros(self):
        assert zeros_of_basic_polynomial(symmetric(1), 3) == [-1, 0, 1]
        assert zeros_of_basic_polynomial(symmetric(1), 4) == [-2, 0, 2]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_zero_sets_match_the_polynomial(self, kind, n):
        c = Correspondence(kind, 1)
        zeros = set(zeros_of_basic_polynomial(c, n))
        poly = basic_polynomial(c, n)
        for m in range(-n - 2, n + 3):
            if m in zeros:
                assert poly(m) == 0
            else:
                assert poly(m) != 0

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            zeros_of_basic_polynomial(right(1), 0)


class TestTaylorSeries:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            TaylorSeries()
        with pytest.raises(ValueError):
            TaylorSeries(coeffs=(1.0,), func=lambda n: 0.0)

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            TaylorSeries(coeffs=(1.0,), parity="mixed")

    def test_exponential_coefficients(self):
        series = TaylorSeries.exponential(0.5)
        assert abs(series.func(3) - 0.5**3 / 6) < 1e-16
        unit, mag = series.log_func(4)
        assert unit == 1.0
        assert abs(mag - (4 * math.log(0.5) - math.lgamma(5))) < 1e-12


class TestUmbralTransform:
    def test_exponential_truncates_on_the_right_branch(self):
        series = TaylorSeries.exponential(0.5)
        value, status = umbral_transform(series, right(1), 3, 1e-12)
        assert status is SummationStatus.EXACT_CUTOFF
        assert abs(value - 3.375) < 1e-12

    def test_constant_series(self):
        series = TaylorSeries.from_coefficients([1.0])
        for kind in ALL_KINDS:
            value, status = umbral_transform(series, Correspondence(kind, 1), 5, 1e-12)
            assert (value, status) == (1.0, SummationStatus.EXACT_CUTOFF)

    def test_divergence_outside_the_disk(self):
        series = TaylorSeries.exponential(2.0)
        _, status = umbral_transform(series, right(1), -1, 1e-12)
        assert status is SummationStatus.DIVERGED

    def test_boundary_momentum_fails_to_converge(self):
        series = TaylorSeries.exponential(1.0)
        _, status = umbral_transform(series, right(1), -1, 1e-12)
        assert status is SummationStatus.DIVERGED

    def test_polynomial_coefficients_reproduce_basic_values(self):
        for kind in ALL_KINDS:
            c = Correspondence(kind, 0.5)
            for n in range(9):
                series = TaylorSeries.from_coefficients([0.0] * n + [1.0])
                for m in range(-6, 7):
                    value, status = umbral_transform(series, c, m, 1e-12)
                    want = basic_polynomial_value(c, n, m)
                    assert status is SummationStatus.EXACT_CUTOFF
                    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_high_degree_terms_round_once(self, kind):
        # values up to 1e300 carry one rounding of the exact root product,
        # not one per factor
        c, exact = Correspondence(kind, 1.0), Correspondence(kind, 1)
        for n in (100, 120):
            series = TaylorSeries.from_coefficients([0.0] * n + [1.0])
            for m in range(-420, 421, 20):
                want = basic_polynomial_value(exact, n, m)
                if want == 0 or abs(want) > 1e300:
                    continue
                value, status = umbral_transform(series, c, m, 1e-12)
                assert status is SummationStatus.EXACT_CUTOFF
                assert abs(value - want) <= 1e-15 * abs(want)

    def test_orders_past_a_subnormal_power_of_the_mantissa(self):
        # 0.002 has the binary mantissa 0.512, whose n-th power is subnormal
        # for n past ~1058 although sigma^n * L_n(-5) stays a normal double
        c, exact = right(0.002), right(Fraction(0.002))
        for n in range(1040, 1121, 4):
            want = basic_polynomial_value(exact, n, -5)
            series = TaylorSeries.from_coefficients([0.0] * n + [1.0])
            value, _ = umbral_transform(series, c, -5, 1e-12)
            err = float(abs(Fraction(value) - want) / abs(want))
            assert err <= 1e-15, (n, err)
        # the exponential reaches those orders: (1 + k sigma)^-5 with k sigma
        # = -0.99, summed without cancellation
        k = complex(-495, 1e-9)
        value, status = umbral_transform(TaylorSeries.exponential(k), c, -5, 1e-12)
        want = (1 + k * 0.002) ** -5
        assert status is SummationStatus.CONVERGED
        assert abs(value - want) <= 1e-11 * abs(want)

    def test_single_parity_series_cuts_off_at_matching_points(self):
        # odd coefficients, odd lattice index: everything beyond |m| vanishes
        series = TaylorSeries(
            func=lambda n: 0.5**n / math.factorial(n) if n % 2 else 0.0,
            parity="odd",
        )
        value, status = umbral_transform(series, symmetric(1), 3, 1e-12)
        assert status is SummationStatus.EXACT_CUTOFF
        # surviving terms: n=1 and n=3 with values 3 sigma and x(x^2-sigma^2)=24
        want = 0.5 * 3 + 0.5**3 / 6 * 24
        assert abs(value - want) < 1e-12

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            umbral_transform(TaylorSeries.exponential(0.5), right(1), 1, 0.0)

    def test_fixed_truncation_caps_the_sum(self):
        # left at m=1 is an infinite series; a finite coefficient list keeps
        # only its orders: 1 + k sigma * 1 for two terms
        series = TaylorSeries.from_coefficients([1.0, 0.5])
        value, status = umbral_transform(series, left(1), 1, 1e-12)
        assert abs(value - 1.5) < 1e-15
        assert status is SummationStatus.EXACT_CUTOFF

    def test_large_positive_sum_converges_instead_of_tripping_the_blowup(self):
        # converges to (1 - 0.9)^(-20) = 1e20, five orders past the blow-up factor
        series = TaylorSeries.exponential(-0.9)
        value, status = umbral_transform(series, right(1), -20, 1e-12)
        assert status is SummationStatus.CONVERGED
        assert abs(value - 1e20) <= 1e-9 * 1e20


class TestContinuumLimit:
    @pytest.mark.parametrize(
        "kind,order,degrees",
        [
            (Kind.RIGHT, 1, (2, 3, 4, 5, 6)),
            (Kind.LEFT, 1, (2, 3, 4, 5, 6)),
            (Kind.SYMMETRIC, 2, (3, 4, 5, 6)),
        ],
    )
    def test_basic_values_approach_powers(self, kind, order, degrees):
        # fixed x = 1 sampled at m = 1/sigma; degrees whose error vanishes
        # identically (n <= 1 right/left, n <= 2 symmetric) carry no slope
        for n in degrees:
            errors, logs = [], []
            for k in (6, 7, 8, 9):
                sigma = 2.0**-k
                c = Correspondence(kind, sigma)
                err = abs(basic_polynomial_value(c, n, round(1 / sigma)) - 1.0)
                errors.append(math.log(err))
                logs.append(math.log(sigma))
            slope = statistics.linear_regression(logs, errors).slope
            assert abs(slope - order) <= 0.2, (kind, n, slope)
