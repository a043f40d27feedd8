"""Basic polynomial sequences: coefficient forms, closed-form values, zeros."""

import math
import statistics
from fractions import Fraction

import pytest

from umbralqm import (
    Correspondence,
    DeltaOperator,
    Kind,
    Polynomial,
    SummationStatus,
    apply_delta,
    apply_xi,
    basic_polynomial,
    basic_polynomial_value,
    basic_polynomial_value_log,
    exponential_series_exact,
    left,
    right,
    symmetric,
    zeros_of_basic_polynomial,
)
from umbralqm import correspondences
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

    def test_float_mode_past_the_double_range_rounds_once(self):
        # 400!/200! is 8e493; at m = -10 the degree-401 value is -(410!/9!) 1e-1604, about -2e-715
        c = Correspondence(Kind.RIGHT, 1.0)
        assert basic_polynomial_value(c, 200, 400) == math.inf
        assert basic_polynomial_value(c, 201, -400) == -math.inf
        tiny = basic_polynomial_value(Correspondence(Kind.RIGHT, 1e-4), 401, -10)
        assert tiny == 0.0 and math.copysign(1.0, tiny) == -1.0

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
            for m in WIDE_MS:
                exact = product_value(kind, n, m, 1)
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


class TestUmbralTransform:
    """The exact series engine: sum of k^n/n! times the basic values at m."""

    def test_exponential_truncates_on_the_right_branch(self):
        value, status = exponential_series_exact(right(1), Fraction(1, 2), 3, 1e-12)
        assert status is SummationStatus.EXACT_CUTOFF
        assert abs(value - 3.375) < 1e-12

    def test_constant_series(self):
        # k = 0 leaves only the n = 0 term, the constant 1
        for kind in ALL_KINDS:
            for k in (0, Fraction(0), 0j):
                value, status = exponential_series_exact(Correspondence(kind, 1), k, 5, 1e-12)
                assert (value, status) == (1.0, SummationStatus.EXACT_CUTOFF)

    @pytest.mark.parametrize("c, k, m", [*((right(1), -1, m) for m in (1, 2, 5)), *((left(1), 1, m) for m in (-1, -2, -5))])
    def test_finite_sum_that_is_exactly_zero(self, c, k, m):
        # (1 + k sigma)^m with k sigma = -1: the |m| + 1 terms cancel exactly
        assert exponential_series_exact(c, k, m, 1e-12) == (0.0, SummationStatus.EXACT_CUTOFF)

    @pytest.mark.parametrize(
        "c, k, m",
        [(right(0.9999999999999998), -1.0000000000000002, -3), (left(0.9999999999999998), 1.0000000000000002, 3)],
    )
    def test_k_sigma_inside_the_disk_that_rounds_to_the_pole_is_unsummed(self, c, k, m):
        # |k sigma| < 1 exactly, but the double base 1 + k sigma (1 - k sigma) is 0
        value, status = exponential_series_exact(c, k, m, 1e-12)
        assert math.isnan(value) and status is SummationStatus.UNSUMMED

    def test_divergence_outside_the_disk(self):
        _, status = exponential_series_exact(right(1), 2, -1, 1e-12)
        assert status is SummationStatus.DIVERGED

    @pytest.mark.parametrize("kind, m", [(Kind.RIGHT, -40), (Kind.LEFT, 40), (Kind.SYMMETRIC, 40), (Kind.SYMMETRIC, -40)])
    def test_a_failed_certificate_extends_the_sum_without_resumming(self, kind, m, monkeypatch):
        # a size hint 1e6^|m| times too large picks too few terms; the tail
        # certificate against the exact sum must catch it, and the extension
        # splits only the terms past the old count
        c, k = Correspondence(kind, Fraction(1, 2)), Fraction(8, 5)
        want, _ = exponential_series_exact(c, k, m, 1e-12)
        counts, leaves = [], []
        term_count, split = correspondences._term_count, correspondences._split

        def count_spy(*args):
            counts.append(term_count(*args))
            return counts[-1]

        def split_spy(ratio, run):
            if len(run) <= correspondences._SPLIT_LEAF:
                leaves.extend(run)
            return split(ratio, run)

        monkeypatch.setattr(correspondences, "_closed_base", lambda kind, ks: (1e6 if m > 0 else 1e-6, 1))
        monkeypatch.setattr(correspondences, "_term_count", count_spy)
        monkeypatch.setattr(correspondences, "_split", split_spy)
        value, status = exponential_series_exact(c, k, m, 1e-12)
        assert status is SummationStatus.CONVERGED
        assert len(counts) >= 2 and counts[-1] > counts[0]
        assert sorted(leaves) == list(range(max(leaves) + 1))  # each term split once
        assert abs(value - want) <= 2.5e-12 * abs(want)


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
