"""Discrete exponential/trig functions, wave relations, amplitude growth."""

import cmath
import math
import statistics
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbralqm import (
    Correspondence,
    DiscreteFunction,
    DomainError,
    Kind,
    SummationStatus,
    WaveSpec,
    amplitude_growth,
    amplitude_growth_log,
    closed_form_status,
    left,
    minimum_wavelength_points,
    momentum_to_wavelength,
    right,
    symmetric,
    umbral_exp,
    umbral_exp_series,
    umbral_trig,
    wavelength_to_momentum,
)

ALL_KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)


def series_oracle(kind, ks, m):
    """Closed form at the exact k sigma (a Fraction, or a pair of Fractions re, im), in mpmath."""
    re, im = ks if isinstance(ks, tuple) else (ks, Fraction(0))
    with mpmath.workdps(60):
        x = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator, mpmath.mpf(im.numerator) / im.denominator)
        if kind is Kind.RIGHT:
            return (1 + x) ** m
        if kind is Kind.LEFT:
            return (1 - x) ** (-m)
        return (x + mpmath.sqrt(x * x + 1)) ** m


def status_rule(kind, q2, m):
    """Series status from the convergence theorem, q2 = |k sigma|^2 exactly."""
    if q2 == 0 or m == 0 or (kind is Kind.RIGHT and m > 0) or (kind is Kind.LEFT and m < 0):
        return SummationStatus.EXACT_CUTOFF
    if q2 < 1:
        return SummationStatus.CONVERGED
    if q2 > 1 or kind is not Kind.SYMMETRIC:
        return SummationStatus.DIVERGED
    return SummationStatus.UNSUMMED


def assert_rounds_to(value, exact, tol):
    """value is within tol of the exact mpmath value, or is its correctly rounded inf or 0."""
    with mpmath.workdps(60):
        rounded = complex(exact) if isinstance(value, complex) else float(exact.real)
        if rounded in (0, math.inf, -math.inf):
            assert value == rounded, (value, exact)
        else:
            err = abs(mpmath.mpc(value) - exact)
            assert err <= (tol + 2**-52) * abs(exact) + 2**-1074, (value, exact)


class TestUmbralExp:
    def test_zero_momentum_is_one(self):
        for kind in ALL_KINDS:
            assert umbral_exp(Correspondence(kind, 0.7), 0.0, 9) == 1.0

    def test_right_closed_form(self):
        assert abs(umbral_exp(right(1), 0.5, 2) - 2.25) < 1e-15
        assert abs(umbral_exp(right(1), 0.5, -1) - 1 / 1.5) < 1e-15

    def test_left_closed_form(self):
        assert abs(umbral_exp(left(1), 0.5, 2) - 0.5**-2) < 1e-12

    def test_symmetric_closed_form(self):
        want = 0.6 + math.sqrt(1.36)
        assert abs(umbral_exp(symmetric(1), 0.6, 1) - want) < 1e-15

    def test_zero_base_negative_power_rejected(self):
        with pytest.raises(DomainError):
            umbral_exp(right(1), -1.0, -1)

    def test_zero_base_non_negative_power(self):
        assert umbral_exp(right(1.0), -1.0, 0) == 1.0
        assert umbral_exp(right(1.0), -1.0, 3) == 0.0

    def test_complex_momentum_uses_principal_branch(self):
        value = umbral_exp(symmetric(1), 0.5j, 1)
        assert abs(value - (0.5j + cmath.sqrt(1 - 0.25))) < 1e-15

    def test_overflow_rounds_to_a_signed_inf(self):
        # (0.2 + sqrt(1.04))^5000 is 1e436; right sinh at k sigma = 0.2, m = -5000 is -(0.8^-5000)/2
        assert umbral_exp(symmetric(0.2), 1, 5000) == math.inf
        assert umbral_exp(symmetric(0.2), 1, -5000) == 0.0
        assert umbral_trig(right(0.2), 1.0, -5000, "sinh") == -math.inf
        assert umbral_exp(right(1), -3.0, 1025) == -math.inf

    def test_mirror_identity_between_right_and_left(self):
        for ks in (-0.7, -0.3, 0.3, 0.7):
            for m in range(-10, 11):
                lhs = umbral_exp(right(1), ks, m)
                rhs = umbral_exp(left(1), -ks, -m)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestUmbralExpSeries:
    def test_right_positive_branch_truncates(self):
        value, status = umbral_exp_series(right(1), 0.5, 3, 1e-12)
        assert status is SummationStatus.EXACT_CUTOFF
        assert abs(value - 3.375) < 1e-12

    def test_zero_momentum(self):
        for kind in ALL_KINDS:
            value, status = umbral_exp_series(Correspondence(kind, 1), 0.0, 5, 1e-12)
            assert (value, status) == (1.0, SummationStatus.EXACT_CUTOFF)

    def test_divergence_outside_the_disk(self):
        _, status = umbral_exp_series(right(1), 1.5, -2, 1e-12)
        assert status is SummationStatus.DIVERGED

    def test_boundary_momentum_fails_to_converge(self):
        _, status = umbral_exp_series(right(1), 1.0, -1, 1e-12)
        assert status is SummationStatus.DIVERGED

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            umbral_exp_series(right(1), 0.5, 1, 0.0)

    def test_large_positive_sum_converges_instead_of_tripping_the_blowup(self):
        # converges to (1 - 0.9)^(-20) = 1e20, twenty orders past its first term
        value, status = umbral_exp_series(right(1), -0.9, -20, 1e-12)
        assert status is SummationStatus.CONVERGED
        assert abs(value - 1e20) <= 1e-9 * 1e20

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agrees_with_closed_form(self, kind):
        c = Correspondence(kind, 1)
        for ks in (-0.5, 0.2, 0.9):
            for m in range(-8, 9):
                closed = umbral_exp(c, ks, m)
                value, _ = umbral_exp_series(c, ks, m, 1e-12)
                assert abs(value - closed) <= 1e-10 * max(1e-300, abs(closed))

    def test_complex_route_matches_closed_form(self):
        # imaginary and complex k sigma across the kinds and spacings; a float
        # sum got 187 of these cells wrong while reporting them converged
        for kind in ALL_KINDS:
            for sigma in (1, 0.5, 0.3, 0.125):
                c = Correspondence(kind, sigma)
                for ks in (0.5j, -0.9j, 0.6 + 0.6j, -0.3 + 0.8j, 0.2 - 0.2j):
                    k = ks / sigma
                    for m in range(-12, 13):
                        closed = umbral_exp(c, k, m)
                        value, status = umbral_exp_series(c, k, m, 1e-12)
                        assert abs(value - closed) <= 1e-10 * abs(closed), (kind, sigma, ks, m)
                        assert status is closed_form_status(c, k, m)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_complex_sum_survives_deep_cancellation(self, kind):
        # |E| falls to 5e-5 at m = -40 on the right branch while the terms
        # reach ~1e26; a float sum returned noise of modulus 2e13 as converged
        c = Correspondence(kind, 1.0)
        for m in range(-40, 41):
            closed = umbral_exp(c, 0.8j, m)
            value, _ = umbral_exp_series(c, 0.8j, m, 1e-12)
            assert abs(value - closed) <= 1e-10 * abs(closed), m

    def test_complex_sum_past_a_thousand_orders(self):
        # (1 + k sigma)^-5 with k sigma = -0.99 + 2e-12 i converges after ~3,900 terms
        c, k = right(0.002), complex(-495, 1e-9)
        value, status = umbral_exp_series(c, k, -5, 1e-12)
        want = (1 + k * 0.002) ** -5
        assert status is SummationStatus.CONVERGED
        assert abs(value - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize(
        "kind, sigma, k, m",
        [
            *((kind, 0.2, 1.0, m) for kind in ALL_KINDS for m in (-950, -840, 950)),
            (Kind.RIGHT, 1.0, 0.9, -96),
            (Kind.LEFT, 1.0, 0.9, -96),
            (Kind.RIGHT, 0.01, 50j, -275),
        ],
    )
    def test_far_lattice_and_near_boundary_cells(self, kind, sigma, k, m):
        # each cell was wrong before the sums were certified: off by up to 1e158,
        # or 0 for a finite sum, often reported diverged
        k_parts, s = complex(k), Fraction(repr(sigma))
        ks = (Fraction(repr(k_parts.real)) * s, Fraction(repr(k_parts.imag)) * s)
        value, status = umbral_exp_series(Correspondence(kind, sigma), k, m, 1e-12)
        assert status is status_rule(kind, ks[0] ** 2 + ks[1] ** 2, m)
        assert_rounds_to(value, series_oracle(kind, ks, m), 1e-12)

    @pytest.mark.parametrize("m, want", [(200, math.inf), (-200, 0.0)])
    def test_sum_past_the_double_range_rounds_to_inf_or_zero(self, m, want):
        # (1 - 0.98)^-m is 1e340 at m = 200 and 1e-340 at m = -200
        value, status = umbral_exp_series(left(1), 0.98, m, 1e-12)
        assert value == want
        assert status is (SummationStatus.CONVERGED if m > 0 else SummationStatus.EXACT_CUTOFF)

    @pytest.mark.parametrize(
        "kind, k, m", [(Kind.RIGHT, 0.999, -1000), (Kind.SYMMETRIC, 0.5, 150_000), (Kind.RIGHT, 0.5, 200_000)]
    )
    def test_a_sum_past_the_term_budget_is_unsummed(self, kind, k, m):
        # the term count is known before summing, so the cell costs no summation
        start = time.perf_counter()
        value, status = umbral_exp_series(Correspondence(kind, 1), k, m, 1e-12)
        assert status is SummationStatus.UNSUMMED
        assert math.isnan(value)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=150)
    @example(Kind.RIGHT, Fraction(1, 3), Fraction(19, 20), -300)
    @example(Kind.LEFT, Fraction(9), Fraction(-19, 20), 300)
    @example(Kind.SYMMETRIC, Fraction(2, 7), Fraction(19, 20), -300)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        sigma=st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
        ks=st.builds(Fraction, st.integers(-19, 19), st.just(20))
        | st.builds(Fraction, st.integers(-6, 6), st.integers(7, 9)),
        m=st.integers(-300, 300),
    )
    def test_status_is_the_theorem_and_value_the_closed_form(self, kind, sigma, ks, m):
        # rational sigma and k sigma with |k sigma| <= 0.95, summed exactly
        c = Correspondence(kind, sigma)
        value, status = umbral_exp_series(c, ks / sigma, m, 1e-12)
        assert status is status_rule(kind, ks * ks, m)
        assert closed_form_status(c, ks / sigma, m) is status
        assert_rounds_to(value, series_oracle(kind, ks, m), 1e-12)


class TestUmbralTrig:
    def test_sine_vanishes_at_origin(self):
        for kind in ALL_KINDS:
            assert umbral_trig(Correspondence(kind, 1), 0.37, 0, "sin") == 0.0

    def test_symmetric_sine_closed_evaluation(self):
        # sin_s(k, m sigma) = sin(m asin(k sigma))
        value = umbral_trig(symmetric(1), math.sin(math.pi / 6), 3, "sin")
        assert abs(value - 1.0) < 1e-12

    def test_right_boundary_sine(self):
        # (1/(2i)) ((1+i)^2 - (1-i)^2) = 2
        assert abs(umbral_trig(right(1), 1.0, 2, "sin") - 2.0) < 1e-12

    @pytest.mark.parametrize("which", ["sin", "cos"])
    def test_circular_matches_complex_series_oracle(self, which):
        for kind in ALL_KINDS:
            c = Correspondence(kind, 1)
            for ks in (0.2, 0.5):
                for m in range(-6, 7):
                    ep, _ = umbral_exp_series(c, complex(0, ks), m, 1e-13)
                    em, _ = umbral_exp_series(c, complex(0, -ks), m, 1e-13)
                    oracle = (ep - em) / 2j if which == "sin" else (ep + em) / 2
                    value = umbral_trig(c, ks, m, which)
                    assert abs(value - oracle.real) <= 1e-10 * max(1.0, abs(value))

    @pytest.mark.parametrize("which", ["sinh", "cosh"])
    def test_hyperbolic_matches_series_oracle(self, which):
        for kind in ALL_KINDS:
            c = Correspondence(kind, 1)
            for ks in (0.2, 0.5):
                for m in range(-6, 7):
                    ep, _ = umbral_exp_series(c, ks, m, 1e-13)
                    em, _ = umbral_exp_series(c, -ks, m, 1e-13)
                    oracle = (ep - em) / 2 if which == "sinh" else (ep + em) / 2
                    value = umbral_trig(c, ks, m, which)
                    assert abs(value - oracle) <= 1e-10 * max(1.0, abs(value))

    def test_circular_domain(self):
        with pytest.raises(DomainError):
            umbral_trig(symmetric(1), 1.2, 1, "sin")
        # kept: the boundary itself is admitted
        umbral_trig(symmetric(1), 1.0, 1, "sin")

    def test_hyperbolic_domain_is_strict(self):
        with pytest.raises(DomainError):
            umbral_trig(right(1), 1.0, 1, "sinh")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            umbral_trig(right(1), 0.5, 1, "tan")


class TestWaveRelations:
    def test_minimum_points(self):
        assert minimum_wavelength_points(symmetric(1)) == 4
        assert minimum_wavelength_points(right(1)) == 8
        assert minimum_wavelength_points(left(1)) == 8

    def test_symmetric_boundary_wave(self):
        c = symmetric(0.5)
        assert wavelength_to_momentum(c, 4) * 0.5 == 1.0
        assert momentum_to_wavelength(c, 1 / 0.5) == 4 * 0.5

    def test_right_boundary_wave(self):
        c = right(0.5)
        assert momentum_to_wavelength(c, 1 / 0.5) == 8 * 0.5

    def test_twelve_point_symmetric_wave(self):
        k = wavelength_to_momentum(symmetric(1), 12)
        assert abs(k - 0.5) < 1e-15

    @pytest.mark.parametrize("factory,lmin", [(symmetric, 4), (right, 8), (left, 8)])
    def test_round_trip(self, factory, lmin):
        c = factory(0.3)
        for l in (lmin, lmin + 0.5, 12, 48, 1000):
            k = wavelength_to_momentum(c, l)
            lam = momentum_to_wavelength(c, k)
            assert abs(lam - l * 0.3) <= 1e-10 * l * 0.3

    def test_below_minimum_rejected(self):
        with pytest.raises(DomainError):
            wavelength_to_momentum(symmetric(1), 3.9)
        with pytest.raises(DomainError):
            wavelength_to_momentum(right(1), 7.9)
        with pytest.raises(DomainError):
            wavelength_to_momentum(right(1), math.nan)

    def test_momentum_domain(self):
        with pytest.raises(DomainError):
            momentum_to_wavelength(symmetric(1), 1.0001)
        with pytest.raises(DomainError):
            momentum_to_wavelength(right(1), 0.0)

    def test_wave_spec_round_trips_between_constructors(self):
        for factory in (symmetric, right, left):
            c = factory(0.25)
            by_points = WaveSpec.from_points(c, 12)
            by_momentum = WaveSpec.from_momentum(c, by_points.k)
            assert abs(by_momentum.wavelength - 12 * 0.25) <= 1e-10
            assert abs(by_momentum.points_per_wavelength - 12) <= 1e-9
            assert not by_points.is_minimal

    def test_wave_spec_flags_the_minimal_wave(self):
        assert WaveSpec.from_points(symmetric(1), 4).is_minimal
        assert WaveSpec.from_momentum(right(0.5), 2.0).is_minimal

    @pytest.mark.parametrize("factory,lmin", [(symmetric, 4), (right, 8), (left, 8)])
    def test_wave_spec_accepts_the_minimal_wave_at_every_spacing(self, factory, lmin):
        # (1/sigma) sigma rounds to 0.9999999999999999 for 112 symmetric spacings here,
        # which asin turned into a 1e-8 disagreement
        for s in range(1, 1001):
            assert WaveSpec.from_points(factory(s / 7), lmin).is_minimal

    @pytest.mark.parametrize("factory", [symmetric, right, left])
    @pytest.mark.parametrize("ks", [1e-310, 1e-320])
    def test_wave_spec_accepts_a_point_count_past_the_double_range(self, factory, ks):
        # lambda/sigma = 2 pi/(k sigma) overflows; so must the point count, which was checked as inf * sigma
        for sigma in (1.0, 1e-140, 1e-300, 1e-5):
            wave = WaveSpec.from_momentum(factory(sigma), ks / sigma)
            assert wave.points_per_wavelength == math.inf
            assert wave.wavelength / sigma == math.inf

    def test_wave_spec_rejects_inconsistent_fields(self):
        c = symmetric(1)
        with pytest.raises(ValueError):
            WaveSpec(c, 0.5, 12, 13.0)
        with pytest.raises(ValueError):
            WaveSpec(c, 0.5, 13, 13.0)
        with pytest.raises(ValueError):
            WaveSpec(c, 0.5 * (1 + 1e-9), 12, 12.0)
        with pytest.raises(DomainError):
            WaveSpec.from_momentum(c, 1.5)


class TestAmplitudeGrowth:
    def test_eight_point_wave_grows_sixteenfold(self):
        assert abs(amplitude_growth(8, 1) - 16.0) < 1e-10

    def test_zeroth_power_is_one(self):
        assert amplitude_growth(17.3, 0) == 1.0

    def test_hundred_point_wave(self):
        # independent route: exp of the log form
        want = math.exp(-100 * math.log(math.cos(2 * math.pi / 100)))
        value = amplitude_growth(100, 1)
        assert abs(value - want) <= 1e-12 * want
        # long-wave approximation (1 + 2 pi^2 / l)^n holds to a few percent
        assert abs(value - (1 + 2 * math.pi**2 / 100)) < 0.03

    def test_log_form_consistency(self):
        assert abs(amplitude_growth_log(8, 2) - math.log(256.0)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            amplitude_growth(4.0, 1)
        with pytest.raises(DomainError):
            amplitude_growth_log(3.0, 1)

    @pytest.mark.parametrize("growth", [amplitude_growth, amplitude_growth_log])
    def test_nan_is_rejected(self, growth):
        with pytest.raises(DomainError):
            growth(math.nan, 1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            growth(8, math.nan)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_infinite_wavelength_does_not_grow(self, n):
        assert amplitude_growth(math.inf, n) == 1.0
        assert repr(amplitude_growth_log(math.inf, n)) == "0.0"


class TestAdditionLaws:
    # the same-momentum translation law survives discretization; the two-momentum law generically does not
    def test_translation_law_holds(self):
        c = right(1)
        assert umbral_exp(c, 0.5, 2) * umbral_exp(c, 0.5, 3) == umbral_exp(c, 0.5, 5)  # 1.5**2 * 1.5**3 == 1.5**5

    def test_two_constant_law_fails(self):
        c = right(1)
        product, expected = umbral_exp(c, 0.3, 2) * umbral_exp(c, 0.4, 2), umbral_exp(c, 0.7, 2)
        assert abs(product - 3.3124) < 1e-12
        assert abs(expected - 2.89) < 1e-12
        assert abs(abs(product - expected) - 0.4224) < 1e-12

    def test_zero_second_momentum_restores_the_law(self):
        for kind in ALL_KINDS:
            c = Correspondence(kind, 1)
            assert abs(umbral_exp(c, 0.5, 3) * umbral_exp(c, 0.0, 3) - umbral_exp(c, 0.5, 3)) <= 1e-12

    def test_translation_law_across_kinds(self):
        for kind in ALL_KINDS:
            c = Correspondence(kind, 1)
            for ks in (0.2, 0.9):
                for m, n in ((1, 2), (-3, 5), (4, 4)):
                    expected = umbral_exp(c, ks, m + n)
                    residual = abs(umbral_exp(c, ks, m) * umbral_exp(c, ks, n) - expected)
                    assert residual <= 1e-12 * max(1.0, abs(expected))

    def test_boundary_sum_of_momenta_hits_the_left_pole(self):
        with pytest.raises(DomainError):
            umbral_exp(left(1), 0.9 + 0.1, 4)


class TestPeriodicity:
    @pytest.mark.parametrize("l", [6, 8, 12])
    def test_symmetric_sine_is_periodic(self, l):
        c = symmetric(1)
        k = wavelength_to_momentum(c, l)
        for m in range(-50, 51):
            a = umbral_trig(c, k, m + l, "sin")
            b = umbral_trig(c, k, m, "sin")
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("l", [6, 8, 12])
    def test_symmetric_sine_equals_sampled_continuous_sine(self, l):
        c = symmetric(1)
        k = wavelength_to_momentum(c, l)
        for m in range(-50, 51):
            assert abs(umbral_trig(c, k, m, "sin") - math.sin(2 * math.pi * m / l)) <= 1e-10

    @pytest.mark.parametrize("l", [8, 12])
    def test_right_sine_zeros_sit_on_the_half_period_grid(self, l):
        c = right(1)
        k = wavelength_to_momentum(c, l)
        envelope = lambda m: (1 + (k * 1) ** 2) ** (m / 2)
        for m in range(0, 3 * l + 1):
            value = umbral_trig(c, k, m, "sin")
            if m % (l // 2) == 0:
                assert abs(value) <= 1e-10 * max(1.0, envelope(m))
            else:
                assert abs(value) > 1e-6

    @pytest.mark.parametrize("l", [8, 12])
    def test_right_sine_envelope_factor(self, l):
        c = right(1)
        k = wavelength_to_momentum(c, l)
        growth = amplitude_growth(l, 1)
        for m in range(-12, 13):
            lhs = umbral_trig(c, k, m + l, "sin")
            rhs = growth * umbral_trig(c, k, m, "sin")
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestContinuumLimit:
    @pytest.mark.parametrize(
        "factory,order", [(right, 1), (left, 1), (symmetric, 2)]
    )
    def test_exponential_order(self, factory, order):
        errors, logs = [], []
        for sigma in (0.1, 0.05, 0.025):
            c = factory(sigma)
            err = abs(umbral_exp(c, 1.0, round(1 / sigma)) - math.e)
            errors.append(math.log(err))
            logs.append(math.log(sigma))
        slope = statistics.linear_regression(logs, errors).slope
        assert abs(slope - order) <= 0.2


class TestDiscreteFunction:
    def test_window_accessors(self):
        f = DiscreteFunction(0.5, -2, [1.0, 2.0, 3.0])
        assert f.window == (-2, 0)
        assert f.value(-1) == 2.0
        assert list(f.indices()) == [-2, -1, 0]
        with pytest.raises(KeyError):
            f.value(1)

    def test_empty_window_is_rejected(self):
        with pytest.raises(ValueError):
            DiscreteFunction(1.0, 0, [])
