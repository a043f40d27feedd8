"""One overflow rule: a float value past the double range is the exact value rounded once.

That is a correctly signed inf, 0 or subnormal; a value within the range is
the exact value to 1e-10 relative. The oracle is the closed form in mpmath at
60 digits, converted with float().
"""

import math
import random
import sys

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from umbralqm import Correspondence, Kind, basic_polynomial_value, umbral_exp, umbral_trig
from umbralqm.functions import _complex_past_range

ALL_KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)
SIGMAS = (1e-3, 5e-4, 2e-3, 0.01, 0.3, 1.0, 3.0)


def assert_rounded_once(value, exact, rel=1e-10):
    """value is float(exact): the same inf or zero with its sign, else within rel (or one subnormal step)."""
    want = float(exact)
    assert math.copysign(1.0, value) == math.copysign(1.0, want), (value, want)
    if math.isinf(want) or want == 0:
        assert value == want, (value, want)
    else:
        assert abs(value - want) <= rel * abs(want) + 2**-1074, (value, want)


def past_the_range(x) -> bool:
    return not sys.float_info.min <= abs(x) <= sys.float_info.max


def root_product(kind, n, m):
    """prod(m - r) over the roots r of the degree-n basic polynomial, in units of sigma, as an int."""
    if kind is Kind.RIGHT:
        return math.prod(m - i for i in range(n))
    if kind is Kind.LEFT:
        return math.prod(m + i for i in range(n))
    return m * math.prod(m - (n - 2) + 2 * i for i in range(n - 1)) if n else 1


def closed_exp(kind, ks, m):
    """The closed-form exponential at the mpmath k sigma ks (real or complex)."""
    if kind is Kind.RIGHT:
        return (1 + ks) ** m
    if kind is Kind.LEFT:
        return (1 - ks) ** (-m)
    return (ks + mpmath.sqrt(ks * ks + 1)) ** m


@settings(max_examples=250)
@example(Kind.SYMMETRIC, 0.0005, (4800, 1))  # the running product underflowed to -0
@example(Kind.RIGHT, 0.001, (3000, 3000))  # underflowed to 0.0; the value is 4.149e130
@example(Kind.RIGHT, 1.0, (201, -400))
@example(Kind.RIGHT, 0.001, (1276, 1341))  # dipped to 1.5e-323 and came back 29% low
@given(
    kind=st.sampled_from(ALL_KINDS),
    sigma=st.sampled_from(SIGMAS),
    cell=st.integers(0, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(-2 * n, 2 * n))),
)
def test_basic_polynomial_value_is_rounded_once(kind, sigma, cell):
    n, m = cell
    with mpmath.workdps(60):
        exact = mpmath.mpf(root_product(kind, n, m)) * mpmath.mpf(sigma) ** n
        assert_rounded_once(basic_polynomial_value(Correspondence(kind, sigma), n, m), exact)


@settings(max_examples=250)
@example(Kind.RIGHT, 1.0, -3.0, 1023)
@example(Kind.RIGHT, 1.0, -3.0, 1024)
@example(Kind.RIGHT, 1.0, -3.0, 1025)  # (-2)^1025: an unsigned inf before
@given(
    kind=st.sampled_from(ALL_KINDS),
    sigma=st.sampled_from(SIGMAS),
    ks=st.floats(-3, 3),
    m=st.integers(-3000, 3000),
)
def test_umbral_exp_is_rounded_once(kind, sigma, ks, m):
    k = ks / sigma
    ks = k * sigma  # the double k sigma the closed form reads
    with mpmath.workdps(60):
        base_is_zero = (kind is Kind.RIGHT and ks == -1) or (kind is Kind.LEFT and ks == 1)
        assume(not (base_is_zero and (m < 0 if kind is Kind.RIGHT else m > 0)))
        assert_rounded_once(umbral_exp(Correspondence(kind, sigma), k, m), closed_exp(kind, mpmath.mpf(ks), m))


@settings(max_examples=300)
@example(1.0, -1e4, -3)  # ks + sqrt(ks^2 + 1) cancelled: 4e-8 relative error
@example(1.0, -1e8, 1)  # read as 0
@example(1.0, -1e8, -1)  # 0 raised to a negative power
@given(sigma=st.sampled_from(SIGMAS), ks=st.floats(-3, 8).map(lambda e: -(10**e)), m=st.integers(-50, 50))
def test_symmetric_exp_at_negative_k_sigma_does_not_cancel(sigma, ks, m):
    k = ks / sigma
    ks = k * sigma
    with mpmath.workdps(50):
        exact = closed_exp(Kind.SYMMETRIC, mpmath.mpf(ks), m)
        assert_rounded_once(umbral_exp(Correspondence(Kind.SYMMETRIC, sigma), k, m), exact, rel=1e-13)


def symmetric_base(ks):
    """ks + root at an mpmath ks: root = sqrt(ks^2 + 1) > 0 for real ks, i sqrt(y^2 - 1) for ks = iy.

    (ks + root)(root - ks) = 1, so the form that adds is taken: 50 digits do
    not survive the cancellation of ks + root at ks = -1e200.
    """
    y = ks.imag
    root = mpmath.mpc(0, mpmath.sqrt(y * y - 1)) if y else mpmath.sqrt(ks * ks + 1)
    return ks + root if (ks * mpmath.conj(root)).real >= 0 else 1 / (root - ks)


HUGE = st.floats(153, 300).map(lambda e: 10**e)


@settings(max_examples=300)
@example(1e200, 1)  # ks^2 overflowed: inf
@example(-1e200, 1)  # read as 0.0
@example(-1e200, -1)  # 0 raised to a negative power
@example(1e200j, 1)  # infj
@example(-1e4j, 1)  # ks + root cancelled: 8.6e-9 relative error
@example(-1e8j, 1)  # read as 0
@example(1e160j, -2)  # the power's intermediate overflowed: 0 for -2.5e-321
@example(1.3407807929942596e154, 1)  # the largest |ks| whose ks^2 is finite: t = 1
@example(1.3407807929942598e154, 1)  # the next float up: ks^2 overflows, t = 2^600
@example(-1.3407807929942596e154, -1)  # both sides of the edge where the form cancels
@example(-1.3407807929942598e154, -1)
@example(-1.3407807929942596e154j, 2)
@example(-1.3407807929942598e154j, 2)
@given(
    ks=st.one_of(
        HUGE,
        HUGE.map(lambda x: -x),
        HUGE.map(lambda y: complex(0, y)),
        HUGE.map(lambda y: complex(0, -y)),
        st.floats(math.log10(1.5), 8).map(lambda e: complex(0, -(10**e))),
    ),
    m=st.integers(-3, 3),
)
def test_symmetric_exp_base_neither_overflows_nor_cancels(ks, m):
    with mpmath.workdps(50):
        exact = symmetric_base(mpmath.mpmathify(ks)) ** m
        value = umbral_exp(Correspondence(Kind.SYMMETRIC, 1.0), ks, m)
        # the base is real or imaginary, so each part of the power is exactly 0 or its value
        for part, exact_part in ((value.real, exact.real), (value.imag, exact.imag)):
            if exact_part == 0:
                assert part == 0, (value, exact)
            else:
                assert_rounded_once(part, exact_part, rel=1e-13)


# |k sigma| from where some |m| <= 9000 leaves the range; symmetric e(ik) is
# unimodular, so only right and left circular cells do
TRIG_CELLS = st.one_of(
    st.tuples(
        st.sampled_from((Kind.RIGHT, Kind.LEFT)),
        st.sampled_from(("sin", "cos")),
        st.floats(0.45, 1) | st.floats(-1, -0.45),
    ),
    st.tuples(
        st.sampled_from(ALL_KINDS),
        st.sampled_from(("sinh", "cosh")),
        st.floats(0.1, 0.99) | st.floats(-0.99, -0.1),
    ),
)


@settings(max_examples=250)
@example((Kind.RIGHT, "sinh", 0.5), -1800)  # sinh(-900) and this cell read as an unsigned inf before
@example((Kind.RIGHT, "sinh", 0.5), 1751)  # e(k) is past the range, sinh = e(k)/2 is not
@example((Kind.RIGHT, "cos", 1.0), 2053)  # -(2^1026): the whole power overflows
@given(cell=TRIG_CELLS, m=st.integers(-9000, 9000))
def test_overflowing_trig_cells_are_rounded_once(cell, m):
    kind, which, ks = cell
    with mpmath.workdps(60):
        if which in ("sin", "cos"):
            z = closed_exp(kind, mpmath.mpc(0, ks), m)
            exact, exponentials = (z.imag if which == "sin" else z.real), [abs(z)]
        else:
            ep, em = closed_exp(kind, mpmath.mpf(ks), m), closed_exp(kind, -mpmath.mpf(ks), m)
            exact, exponentials = ((ep - em) if which == "sinh" else (ep + em)) / 2, [ep, em]
        # cells whose value or exponentials leave the range; an exact zero (k sigma = 1) is not one
        assume(exact != 0 and (past_the_range(exact) or max(map(float, exponentials)) == math.inf))
        assert_rounded_once(umbral_trig(Correspondence(kind, 1.0), ks, m, which), exact)


def test_an_off_axis_power_past_the_range_keeps_its_zero_part():
    # the base is about 2e200 (1 + i), so the square is 8e400 i: its real part is 0, not inf
    value = umbral_exp(Correspondence(Kind.SYMMETRIC, 1.0), complex(1e200, 1e200), 2)
    assert repr(value) == repr(complex(0.0, math.inf))


def ulp(x) -> mpmath.mpf:
    """The spacing of doubles at a magnitude x >= 0 of any size: 2^-1074 below the normal range."""
    return mpmath.mpf(2) ** max(int(mpmath.floor(mpmath.log(x, 2))) - 52 if x else -1074, -1074)


def test_off_axis_powers_past_the_range_are_within_a_few_ulps_of_their_modulus():
    # a seeded grid of bases with both parts between 1e150 and 1e300 in size; each part of the
    # power is within 4 ulps of |z| of its value, or the inf of its sign where it rounds past 2^1024
    rng = random.Random(29)
    top = mpmath.mpf(2) ** 1024
    with mpmath.workprec(200):
        for _ in range(2000):
            re, im = (rng.choice((-1, 1)) * 10 ** rng.uniform(150, 300) for _ in range(2))
            expo = rng.choice((-1, 1)) * rng.choice((2, 3, 5, 7))
            value = _complex_past_range(complex(re, im), expo)
            exact = mpmath.mpc(re, im) ** expo
            tol = 4 * ulp(abs(exact))
            for part, want in ((value.real, exact.real), (value.imag, exact.imag)):
                if math.isinf(part):
                    assert math.copysign(1, part) * want >= top - tol, (re, im, expo, value)
                else:
                    assert abs(part - want) <= tol, (re, im, expo, value)
