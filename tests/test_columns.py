"""Column kernels: each float closed form's column is its scalar function, cell by cell.

The scalar functions are the kernels at one point, so a column must give the
same repr at every cell, or raise the same exception type where the scalar
does. A column computes its base, roots and range bound once, from the whole
window; the windows here cross the zeros and the overflow and underflow
edges, so a bound that holds for one point but not for the window shows. A
copy of the per-cell basic polynomial loop, with its range check on every
step, and a copy of the per-level well loop are the references for the
hoisted range check and the spectrum's columns.

The exact series column reads its cells through the same blocks as the float
columns and sums each block of a range from the origin outward, walking from
cell to cell by the delta recurrence of the truncated sum; any other iterable
is summed in its own order. A copy of the per-cell engine it replaced, one
binary split from n = 0 per cell, is its reference, in windows that cross the
origin, the term budget, the changes of status and block edges, and in any
order of m.
"""

import cmath
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import chain, count, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralqm import (
    Correspondence,
    DomainError,
    Kind,
    PlaneWaveState,
    SummationStatus,
    WellLevel,
    basic_polynomial_column,
    basic_polynomial_value,
    basic_polynomial_value_log,
    closed_form_status,
    exponential_series_column,
    exponential_series_exact,
    infinite_well_spectrum,
    umbral_exp,
    umbral_exp_column,
    umbral_exp_series,
    umbral_trig,
    umbral_trig_column,
    well_state_count,
)
from umbralqm import correspondences as C
from umbralqm import functions as F
from umbralqm.functions import lattice_dispersion

KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)
SPACINGS = (1, 0.3, 1e-300, 1e300, Fraction(2, 7))
# k sigma: real, imaginary (symmetric |k sigma| > 1 among them) and off-axis; -1 and 1 zero a base
EXP_KS = (0.5, -0.7, 3.0, -1.0, 1.0, 0.9j, -0.9j, 2.5j, -2.5j, 0.3 + 0.4j, -2 + 1j, 1e200 + 1e200j)
TRIG_KS = (0.0, 0.3, -0.999, 1.0, 1.5)
NEAR = range(-12, 13)


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the type is the outcome
        return type(exc)


def assert_column_is_scalar(column, scalar, ms):
    """column(ms) is scalar(m) at every m by repr; where a cell raises, the scalar raises the same type."""
    try:
        cells = iter(column(ms))
    except Exception as exc:  # a domain check before any cell
        assert {outcome(scalar, m) for m in ms} == {type(exc)}
        return
    for m in ms:
        got = outcome(next, cells)
        assert got == outcome(scalar, m), m
        if isinstance(got, type):  # the column stops at its first raising cell
            return
    assert outcome(next, cells) is StopIteration


def window(kind, ks):
    """A window near the origin plus blocks at the overflow, underflow and subnormal edges of e(k)."""
    ks = complex(ks)
    base = {Kind.RIGHT: 1 + ks, Kind.LEFT: 1 / (1 - ks) if ks != 1 else 0, Kind.SYMMETRIC: ks + cmath.sqrt(ks * ks + 1)}
    log_base = math.log(abs(base[kind])) if base[kind] and cmath.isfinite(base[kind]) else 0.0
    ms = list(NEAR)
    if abs(log_base) > 1e-6:
        for edge in (709.8, -708.4, -744.4):
            centre = int(edge / log_base)
            ms += range(centre - 3, centre + 4)
    return ms


@pytest.mark.parametrize("sigma", SPACINGS, ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_exp_column_is_the_scalar(kind, sigma):
    c = Correspondence(kind, sigma)
    for ks in EXP_KS:
        k = ks / c.sigma_float()
        if not cmath.isfinite(k):
            continue
        ms = window(kind, ks)
        assert_column_is_scalar(lambda ms: umbral_exp_column(c, k, ms), lambda m: umbral_exp(c, k, m), ms)


@pytest.mark.parametrize("which", ("sin", "cos", "sinh", "cosh"))
@pytest.mark.parametrize("sigma", SPACINGS, ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_trig_column_is_the_scalar(kind, sigma, which):
    c = Correspondence(kind, sigma)
    for ks in TRIG_KS:
        k = ks / c.sigma_float()
        ms = window(kind, ks * 1j if which in ("sin", "cos") else ks) + window(kind, -ks)
        assert_column_is_scalar(
            lambda ms: umbral_trig_column(c, k, ms, which), lambda m: umbral_trig(c, k, m, which), ms
        )


def test_trig_domain_is_checked_before_any_cell():
    c = Correspondence(Kind.RIGHT, 1.0)
    with pytest.raises(DomainError):
        umbral_trig_column(c, 1.5, [], "sin")
    with pytest.raises(DomainError):
        umbral_trig_column(c, 1.0, [], "sinh")
    for which in ("sin", "cos", "sinh", "cosh"):  # a nan k sigma is outside every domain, as +-inf is
        with pytest.raises(DomainError):
            umbral_trig_column(c, math.nan, [], which)
        with pytest.raises(DomainError):
            umbral_trig(c, math.nan, 3, which)
    with pytest.raises(ValueError):
        umbral_trig_column(c, 0.5, [], "tan")


POLY_DEGREES = (0, 1, 2, 7, 40, 90)


@pytest.mark.parametrize("sigma", SPACINGS, ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_basic_polynomial_column_is_the_scalar(kind, sigma):
    c = Correspondence(kind, sigma)
    ms = [*NEAR, *range(-300, 301, 37), 10**6, -(10**6)]
    for n in POLY_DEGREES:
        assert_column_is_scalar(
            lambda ms: basic_polynomial_column(c, n, ms), lambda m: basic_polynomial_value(c, n, m), ms
        )


def reference_value(c, n, m):
    """The per-cell loop: the running product, its range checked after every factor."""
    rest = {Kind.RIGHT: range(n - 1, -1, -1), Kind.LEFT: range(0, -n, -1), Kind.SYMMETRIC: range(n - 2, -n, -2)}
    rest, lead = rest[c.kind], c.kind is Kind.SYMMETRIC and n > 0
    if (lead and m == 0) or m in rest:
        return 0.0
    sigma = float(c.sigma)
    acc = m * sigma if lead else 1.0
    for r in rest:
        acc *= (m - r) * sigma
        if not sys.float_info.min <= abs(acc) < math.inf:
            sign, mag = basic_polynomial_value_log(c, n, m)
            try:
                return math.copysign(math.exp(mag), sign)
            except OverflowError:
                return math.copysign(math.inf, sign)
    return acc


def edge_spacings(n, reach):
    """Spacings that put the largest product of n factors on [-reach, reach], or the smallest, near the range's ends."""
    log_max, log_min = math.log(sys.float_info.max), math.log(sys.float_info.min)
    out = []
    for margin in (-3.0, -1.0, -0.2, 0.0, 0.2, 1.0, 3.0):
        out.append(math.exp((log_max + margin) / n - math.log(reach + n)))
        out.append(math.exp((log_min + margin) / n))
    return out


@pytest.mark.parametrize("n", (2, 7, 40))
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_basic_polynomial_column_at_the_range_bound_is_the_checked_loop(kind, n):
    reach = 300
    ms = range(-reach, reach + 1)
    for sigma in edge_spacings(n, reach):
        c = Correspondence(kind, sigma)
        got = list(map(repr, basic_polynomial_column(c, n, ms)))
        assert got == [repr(reference_value(c, n, m)) for m in ms], sigma


@settings(max_examples=40)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(0, 40),
    log_sigma=st.floats(math.log(1e-300), math.log(1e300)),
    offset=st.integers(-3 * C._BLOCK, 3 * C._BLOCK),
)
def test_a_range_column_is_its_scalar_cells(kind, n, log_sigma, offset):
    # a scalar is one cell, so checked(m); the range's full block and short block take the pass
    # wherever the bound clears them, so the two routes meet on both sides of the bound
    c = Correspondence(kind, math.exp(log_sigma))
    ms = range(offset, offset + C._BLOCK + 4)
    assert list(map(repr, basic_polynomial_column(c, n, ms))) == [repr(basic_polynomial_value(c, n, m)) for m in ms]


def test_a_scalar_basic_value_builds_no_factor_table():
    # one cell is checked(m), whose memory does not grow with n; a table of its n factors would
    c = Correspondence(Kind.RIGHT, 1e-3)
    tracemalloc.start()
    try:
        value = basic_polynomial_value(c, 100_000, -7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert value == math.inf


def test_symmetric_b1_at_a_subnormal_spacing_is_the_product():
    # B_1 = m sigma is one rounding, and no range check follows the lead factor: a value
    # re-derived from its log would be some ten subnormal steps off here
    sigma = 1.2345e-310
    ms = range(-40, 41)
    assert list(map(repr, basic_polynomial_column(Correspondence(Kind.SYMMETRIC, sigma), 1, ms))) == [
        repr(m * sigma if m else 0.0) for m in ms
    ]


@pytest.mark.parametrize("n", (0, 1, 2, 7))
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_a_cell_past_the_float_range_raises_at_its_own_cell(kind, n):
    # 2^1024 - 2^970 is the least int that rounds past the double range: a run of cells up to
    # it yields every cell whose factors are floats before it raises, as the per-cell loop did
    top = 2**1024 - 2**970
    c = Correspondence(kind, 0.3)
    for ms in (range(top - 12, top + 1), range(top, top - 13, -1), [top - 5, top - 4, top, top - 3]):
        assert_column_is_scalar(lambda ms: basic_polynomial_column(c, n, ms), lambda m: reference_value(c, n, m), ms)


def test_a_product_that_leaves_the_range_midway_is_rederived():
    # right B_2000 at sigma = e/2000: at m < 0 the factors fall from about e to sigma, so the
    # running product overflows before it comes back; at m >= 2000 they rise, so it underflows first
    c = Correspondence(Kind.RIGHT, math.e / 2000)
    ms = [-2, -1, 2000, 2001]
    values = list(basic_polynomial_column(c, 2000, ms))
    assert all(1 < v < 1e6 for v in values)
    assert list(map(repr, values)) == [repr(reference_value(c, 2000, m)) for m in ms]


# ---------------------------------------------------------------------------
# column passes against their per-cell references
# ---------------------------------------------------------------------------


def power_fails(base, expo) -> bool:
    """Whether base**expo raises or, for a complex base, is not finite or is an imaginary base's power below the normal range."""
    try:
        z = base**expo
    except (OverflowError, ZeroDivisionError):
        return True
    return isinstance(z, complex) and not (cmath.isfinite(z) and not (base.real == 0 and abs(z) < sys.float_info.min))


def reference_exp(c, k, m):
    """The per-cell rule of umbral_exp: base**(s m), through the past-the-range rules where that power fails."""
    base, s = C._closed_base(c.kind, k * c.sigma_float())
    expo = s * m
    if base == 0:
        return F._zero_power(expo)
    if not isinstance(base, complex):
        return F._power(base, expo)
    return F._complex_past_range(base, expo) if power_fails(base, expo) else base**expo


def past_range(value) -> bool:
    """Whether a real or complex value is 0, or has a nonzero part that is not a normal double."""
    return value == 0 or not all(sys.float_info.min <= abs(part) < math.inf for part in (value.real, value.imag) if part)


def orders(window: range) -> list:
    """window, and the same cells descending, at step 2, as a list with gaps and repeats, and none."""
    e = window.start + C._BLOCK  # a block edge
    return [window, window[::-1], window[::2], [e - 3, e - 3, e - 2, e - 1, e - 2, e, e + 1, e + 1, e - 9, e + 4, e + 3], []]


def assert_pass_is_per_cell(column, reference, window: range):
    for ms in orders(window):
        assert list(map(repr, column(ms))) == [repr(reference(m)) for m in ms], ms


def edge_window(e: int) -> range:
    """Cells on both sides of the block edge at m = e, over three blocks, the last a short one."""
    return range(e - C._BLOCK, e + C._BLOCK + 5)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_basic_polynomial_pass_is_the_per_cell_loop_across_block_edges(kind):
    # B_7 at m and its neighbours: zeros on both sides of the edge, and near them products whose
    # magnitude is subnormal; then a spacing where the products overflow from a few cells before the edge
    n, log_max = 7, math.log(sys.float_info.max)
    edge = {Kind.RIGHT: 3, Kind.LEFT: -3, Kind.SYMMETRIC: 1}[kind]
    cases = [(edge, (1e-312 / math.factorial(n)) ** (1 / n)), (10**4, math.exp(log_max / n) / (10**4 - 8))]
    for e, sigma in cases:
        c = Correspondence(kind, sigma)
        window = edge_window(e)
        values = {m: reference_value(c, n, m) for m in range(e - 6, e + 6)}
        zeros = set(C.zeros_of_basic_polynomial(c, n))
        for side in (range(e - 6, e), range(e, e + 6)):
            assert any(past_range(values[m]) for m in side if m not in zeros), (sigma, side)
            assert e > 100 or any(m in zeros for m in side), side
        assert_pass_is_per_cell(lambda ms: basic_polynomial_column(c, n, ms), lambda m: reference_value(c, n, m), window)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_exp_pass_is_the_per_cell_rule_across_block_edges(kind):
    # real bases whose powers overflow (raise) or underflow to 0, complex ones whose powers
    # overflow or underflow, imaginary ones (symmetric at k sigma = 2.5i and i); each edge is two
    # cells past the first power out of the range, so the block before it holds both kinds of cell
    c = Correspondence(kind, 1.0)
    for ks in (-3.0, 0.5, 0.9j, -0.9j, 0.3 + 0.4j, 2.5j, 1j):
        base, s = C._closed_base(kind, ks)
        log_base = s * math.log(abs(base))
        ends = [(709.8 / log_base, power_fails), (-745.2 / log_base, None)] if abs(log_base) > 1e-6 else []
        for x, fails in ends or [(0, None)]:
            e = int(x) + 3 if x > 0 else int(x) - 2
            for side in (range(e - 2, e), range(e, e + 2)) if ends else ():
                if fails:
                    assert all(fails(base, s * m) for m in side), (ks, side)
                else:
                    assert all(past_range(reference_exp(c, ks, m)) for m in side), (ks, side)
            column = lambda ms: umbral_exp_column(c, ks, ms)
            assert_pass_is_per_cell(column, lambda m: reference_exp(c, ks, m), edge_window(e))


def reference_hyperbolic(c, k, m, sinh):
    """The per-cell rule of sinh and cosh: half the sum or difference of e(k) and e(-k), or half the inf one from its log."""
    ep, em = reference_exp(c, k, m), reference_exp(c, -k, m)
    value = (ep - em) / 2 if sinh else (ep + em) / 2
    if math.isinf(value):
        big = k if math.isinf(ep) else -k
        base, s = C._closed_base(c.kind, big * c.sigma_float())
        value = C._signed_exp(-1.0 if sinh and big != k else 1.0, s * m * math.log(base) - math.log(2))
    return value


@pytest.mark.parametrize("which", ("sinh", "cosh"))
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_hyperbolic_pass_is_the_per_cell_rule_across_block_edges(kind, which):
    # an edge two cells past the first inf e(k) at k sigma 0.5: the window also reaches the inf e(-k),
    # and on both sides holds cells where half the inf one is finite, taken from its log
    c, ks = Correspondence(kind, 1.0), 0.5
    base, s = C._closed_base(kind, ks)
    window = edge_window(int(709.8 / (s * math.log(base))) + 3)
    reference = partial(reference_hyperbolic, c, ks, sinh=which == "sinh")
    for k in (ks, -ks):
        assert any(math.isinf(reference_exp(c, k, m)) and math.isfinite(reference(m)) for m in window), k
    assert_pass_is_per_cell(lambda ms: umbral_trig_column(c, ks, ms, which), reference, window)


@pytest.mark.parametrize("sigma", (0.3, 1e-300, 1e300, 1e100), ids=repr)
def test_continuous_power_pass_is_the_per_cell_power(sigma):
    # the polys continuous_n columns: x**n over one chunk of x = m sigma, past the range at some m
    xs = [m * sigma for m in range(-C._BLOCK // 2, C._BLOCK // 2)]
    for n in (0, 1, 2, 7, 40):
        assert list(map(repr, F._power_pass(xs, repeat(n)))) == [repr(F._power(x, n)) for x in xs]


@pytest.mark.parametrize("sigma", (1.0, 0.3, 1e-300, 1e300, 5e-324), ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_every_zero_is_positive(kind, sigma):
    c = Correspondence(kind, sigma)
    for n in (1, 2, 7, 40):
        zeros = C.zeros_of_basic_polynomial(c, n)
        for ms in (range(-50, 51), range(50, -51, -1), zeros):
            for m, value in zip(ms, basic_polynomial_column(c, n, ms)):
                if m in zeros:
                    assert repr(value) == "0.0", (n, m)


def test_a_column_over_a_huge_window_computes_one_block():
    ms = range(-(10**12), 10**12)
    columns = [
        lambda: basic_polynomial_column(Correspondence(Kind.RIGHT, 0.5), 7, ms),
        lambda: umbral_exp_column(Correspondence(Kind.RIGHT, 1.0), 0.5j, ms),
    ]
    for column in columns:
        tracemalloc.start()
        try:
            first = next(column())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert first == reference_exp(Correspondence(Kind.RIGHT, 1.0), 0.5j, -(10**12))



def test_blocks_slice_a_step_1_range_and_walk_anything_else_cell_by_cell():
    for ms in (range(-5, 3 * C._BLOCK + 7), range(7, 7 + C._BLOCK), range(3, 4)):
        blocks = list(C._blocks(ms))
        assert all(block.step == 1 and 0 < len(block) <= C._BLOCK for block in blocks)
        assert list(chain.from_iterable(blocks)) == list(ms)
    lo = -(10**12)
    huge = C._blocks(range(lo, -lo))  # lazily: a list of its blocks would not fit in memory
    assert [next(huge), next(huge)] == [range(lo, lo + C._BLOCK), range(lo + C._BLOCK, lo + 2 * C._BLOCK)]
    cells = [5, 5, -2, 9, 8, 8, C._BLOCK + 1]
    for ms, values in ((range(5, -5, -1),) * 2, (range(-6, 9, 2),) * 2, (cells, cells), (iter(cells), cells)):
        assert list(C._blocks(ms)) == [range(m, m + 1) for m in values]
    assert list(C._blocks(range(0))) == list(C._blocks([])) == []
    with pytest.raises(TypeError):  # a cell that is not an int
        list(C._blocks([1.5]))


# gaps and repeats, across m = _BLOCK, where e(k) is past the range and sinh and cosh (right, k sigma 0.1893)
# take half of it from its log
ITERATED_CELLS = [3, 3, -2, 0, *range(C._BLOCK - 3, C._BLOCK + 3), C._BLOCK + 1, 2000, 1]
ITERATED_KERNELS = [
    pytest.param(partial(basic_polynomial_column, Correspondence(Kind.RIGHT, 0.5), 7), id="basic-float-sigma"),
    pytest.param(
        partial(basic_polynomial_column, Correspondence(Kind.SYMMETRIC, Fraction(1, 3)), 5), id="basic-exact-sigma"
    ),
    pytest.param(partial(umbral_exp_column, Correspondence(Kind.LEFT, 0.3), 0.5), id="exp-real-k"),
    pytest.param(partial(umbral_exp_column, Correspondence(Kind.SYMMETRIC, 1.0), 0.3 + 0.4j), id="exp-complex-k"),
    *(
        pytest.param(partial(umbral_trig_column, Correspondence(Kind.RIGHT, 1.0), 0.1893, which=which), id=which)
        for which in ("sin", "cos", "sinh", "cosh")
    ),
    pytest.param(partial(exponential_series_column, Correspondence(Kind.RIGHT, 1), 0.5, tol=1e-12), id="series"),
]


@pytest.mark.parametrize("kernel", ITERATED_KERNELS)
def test_a_kernel_reads_an_iterator_as_the_list_of_its_cells(kernel):
    expected = list(map(repr, kernel(ITERATED_CELLS)))
    assert len(expected) == len(ITERATED_CELLS)
    assert list(map(repr, kernel(iter(ITERATED_CELLS)))) == expected



def test_a_cell_that_is_not_an_int_raises_in_every_float_kernel():
    c = Correspondence(Kind.RIGHT, 1.0)
    kernels = [
        partial(basic_polynomial_column, c, 3),
        *(partial(umbral_exp_column, c, k) for k in (0.5, -1.0, 0.3j)),  # -1.0: a zero base
        *(partial(umbral_trig_column, c, 0.5, which=which) for which in ("sin", "sinh")),
    ]
    for kernel in kernels:
        with pytest.raises(TypeError):
            list(kernel([1, 2.5]))
    # the series column raises at its own cell too, after the cells before it
    series = exponential_series_column(c, 0.5, [1, 2.5], 1e-12)
    assert next(series) == (1.5, SummationStatus.EXACT_CUTOFF)
    with pytest.raises(TypeError):
        next(series)


def test_an_index_that_is_not_an_int_raises_in_every_scalar_and_column():
    # int(2.7) read the scalars' index as m = 2, and the exact column computed at the off-lattice point 2.7
    c, exact = Correspondence(Kind.RIGHT, 1.0), Correspondence(Kind.RIGHT, 1)
    columns = [
        partial(basic_polynomial_column, exact, 2),
        partial(exponential_series_column, c, 0.5, tol=1e-12),
        partial(exponential_series_column, Correspondence(Kind.LEFT, 1.0), 0.5, tol=1e-12),  # a converged cell
    ]
    scalars = [
        *(partial(basic_polynomial_value, sigma, 2) for sigma in (c, exact)),
        partial(basic_polynomial_value_log, c, 2),
        partial(umbral_exp, c, 0.5),
        partial(umbral_exp_series, c, 0.5),
        partial(exponential_series_exact, c, 0.5, tol=1e-12),
        partial(closed_form_status, c, 0.5),
        partial(umbral_trig, c, 0.5, which="sin"),
        PlaneWaveState(c, 0.5).sample,
    ]
    for kernel in columns:
        with pytest.raises(TypeError):
            list(kernel([1, 2.7]))
    for scalar in scalars:
        with pytest.raises(TypeError):
            scalar(2.7)

def reference_levels(c, M):
    """The per-level loop of the well spectrum: one WellLevel per candidate level."""
    s = c.sigma_float()
    rule = lattice_dispersion(c.kind)[0]
    pole = M // 2 if c.kind is not Kind.SYMMETRIC and M % 2 == 0 else None
    levels = []
    for n in range(1, M // 2 + 1):
        if n == pole:
            levels.append(WellLevel(n, math.inf, math.inf, False, False))
            continue
        ks = rule(math.pi * n / M)
        convergent = c.kind is Kind.SYMMETRIC or ks < 1.0 - 1e-12
        try:
            energy = (ks / s) ** 2
        except OverflowError:
            energy = math.inf
        levels.append(WellLevel(n, ks / s, energy, True, convergent))
    return tuple(levels)


@pytest.mark.parametrize("sigma", (1.0, 0.3, 1e-300, sys.float_info.min, 1e300), ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("M", (2, 3, 8, 9, 16, 1001))
def test_well_spectrum_columns_are_the_per_level_loop(kind, sigma, M):
    c = Correspondence(kind, sigma)
    spectrum, levels = infinite_well_spectrum(c, M), reference_levels(c, M)
    assert repr(spectrum.levels) == repr(levels)
    for n in range(1, M):
        assert repr(spectrum.energy_of(n)) == repr(levels[min(n, M - n) - 1].energy)
    assert spectrum.degeneracy_pairs == [(lv.n, M - lv.n) for lv in levels]
    physical, convergent = sum(lv.physical for lv in levels), sum(lv.convergent for lv in levels)
    assert well_state_count(c, M) == (len(levels), physical, convergent)


# ---------------------------------------------------------------------------
# the exact series column
# ---------------------------------------------------------------------------


def reference_series(c, k, m, tol):
    """The per-cell engine the series column replaced: each cell summed from n = 0 by one binary split."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m, kind, unit = int(m), c.kind, Correspondence(c.kind, 1)
    P, Q = C._momentum_ratio(k, c.sigma)
    status = C._series_status(kind, P, Q, m)
    if status not in (SummationStatus.EXACT_CUTOFF, SummationStatus.CONVERGED):
        return math.nan, status
    log_q, accept = C._log_abs(P) - math.log(Q), math.log(tol / (1 + tol))
    if status is SummationStatus.EXACT_CUTOFF:
        N = abs(m) + 1 if P else 1
    else:
        base, sign = C._closed_base(kind, C._to_float(P, Q))
        if not base:
            return math.nan, SummationStatus.UNSUMMED
        N = C._term_count(unit, log_q, m, accept - math.log(4) + sign * m * math.log(abs(base)))
    starts = C._lattice_chains(kind, m)
    step = len(starts)

    def ratio(run):
        rising = [math.perm(n + step, step) for n in run]
        return [P**step * s for s in C._lattice_steps(kind, m, run)], [Q**step * f for f in rising]

    chains = [(P**i * L, Q**i, P * 0) for i, L in enumerate(starts)]
    done = 0
    while N <= C._TERM_BUDGET:
        runs = [range(done + (i - done) % step, N, step) for i in range(step)]
        chains = [C._merge(ch, C._split(ratio, run)) if run else ch for ch, run in zip(chains, runs)]
        done = N
        num, den = P * 0, 1
        for _, B, T in chains:
            num, den = num * B + T * den, den * B
        log_sum = C._log_abs(num) - math.log(den)
        tail = C._log_tail(kind, log_q, m, N, [C._log_abs(A) - math.log(B) for A, B, _ in chains])
        if tail == -math.inf or tail - log_sum <= accept:
            return C._to_float(num, den), status
        N = max(C._term_count(unit, log_q, m, accept - math.log(4) + log_sum), 2 * N)
    return math.nan, SummationStatus.UNSUMMED


def assert_series_column_is_per_cell(c, k, ms, tol=1e-12):
    assert_column_is_scalar(
        lambda ms: exponential_series_column(c, k, ms, tol), lambda m: reference_series(c, k, m, tol), ms
    )


# k sigma: real inside the disk, on and past its edge; imaginary (symmetric |k sigma| > 1 diverges) and off-axis
SERIES_KS = (0.1, 0.5, 0.9, 0.95, -0.9, 1.0, -1.0, 1.5, 0.9j, -0.9j, 1.5j, -2.5j, 0.3 + 0.4j, -0.5 + 0.7j)


# the default block, and blocks of 7 cells: block edges inside every range (a list is one cell per block)
CHUNKS = pytest.mark.parametrize("block", (C._BLOCK, 7), ids=lambda block: f"chunk{block}")


@CHUNKS
@pytest.mark.parametrize("ks", SERIES_KS, ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_across_the_origin_is_the_per_cell_engine(kind, ks, block, monkeypatch):
    # the statuses change at m = 0: cutoff on one side, converged, diverged or unsummed on the other
    monkeypatch.setattr(C, "_BLOCK", block)
    assert_series_column_is_per_cell(Correspondence(kind, 1), ks, range(-14, 15))


@pytest.mark.parametrize("sigma", (1, 0.3, Fraction(2, 7)), ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_far_out_is_the_per_cell_engine(kind, sigma):
    # long sums: N falls by several terms per step toward m = 0, and symmetric N = |m| at small k sigma
    c = Correspondence(kind, sigma)
    for ks, lo in ((0.9, -60), (0.9, 40), (0.2, -230), (0.2, 205), (0.5j, 60), (0.3 + 0.4j, -50)):
        assert_series_column_is_per_cell(c, ks / c.sigma_float(), range(lo, lo + 21))


@CHUNKS
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_in_any_order_is_the_per_cell_engine(kind, block, monkeypatch):
    monkeypatch.setattr(C, "_BLOCK", block)
    c = Correspondence(kind, 1)
    orders = (
        range(30, -31, -1),  # descending, across the origin
        [7, 7, 8, 8, 8, 9, 7, 6, 6, 5],  # repeated, and turning back
        *([side * m for m in (*range(9, 16), 14, 14, 15)] for side in (1, -1)),  # back one step inward, repeated, out again
        [-20, -18, -17, 3, -16, -15, 0, 1, 2, 40, 39, -39],  # gaps, and one side to the other
        [25],  # a single point
        [],
    )
    for ks in (0.9, -0.5, 0.7j):
        for ms in orders:
            assert_series_column_is_per_cell(c, ks, ms)


@pytest.mark.parametrize("ks", (Fraction(1, 1000), -0.01, 0.0, 0.01j, -1.0, 1.0), ids=repr)
@pytest.mark.parametrize("kind", (Kind.RIGHT, Kind.LEFT), ids=lambda kind: kind.value)
def test_cutoff_column_steps_to_the_per_cell_binomial(kind, ks):
    # an exact_cutoff cell's powers come from the last cutoff cell's, one more factor per step
    # out in |m|, else afresh: a list is summed in its own order, so |m| rises along the right
    # window and the left one alike, each across m = C._BLOCK and two gaps; k sigma = -1 and 1
    # zero the right and left bases
    ms = [0, 1, 2, *range(C._BLOCK - 3, C._BLOCK + 3), *range(C._BLOCK + 7, C._BLOCK + 10)]
    if kind is Kind.LEFT:
        ms = [-m for m in ms]
    c = Correspondence(kind, 1)
    assert {C._series_status(kind, *C._momentum_ratio(ks, 1), m) for m in ms} == {SummationStatus.EXACT_CUTOFF}
    assert_series_column_is_per_cell(c, ks, ms)


def test_a_column_splits_once_where_n_is_smallest_and_walks_outward(monkeypatch):
    # right k sigma = 0.9 over m = -105..-82: N falls toward the origin, so the one fresh
    # split (the move from N0 = 0) is at m = -82, and every other cell steps out from it;
    # symmetric k sigma = 0.5 over m = -8..8 splits at +-1 and +-2, where no two walked cells
    # are nearer the origin, and at 4, 5 and 7, where N is below a nearer cell's
    splits, resized = [], C._resized
    monkeypatch.setattr(C, "_resized", lambda *args: (args[5] == 0 and splits.append(args[3])) or resized(*args))
    list(exponential_series_column(Correspondence(Kind.RIGHT, 1), 0.9, range(-105, -81), 1e-12))
    assert splits == [-82]
    splits.clear()
    list(exponential_series_column(Correspondence(Kind.SYMMETRIC, 1), 0.5, range(-8, 9), 1e-12))
    assert sorted(splits) == [-2, -1, 1, 2, 4, 5, 7]


def test_a_column_reads_one_chunk_before_its_first_cell():
    drawn = []

    def cells():
        for m in count(-3):
            drawn.append(m)
            yield m

    c = Correspondence(Kind.RIGHT, 1)
    column = exponential_series_column(c, 0.5, cells(), 1e-12)
    assert repr(next(column)) == repr(reference_series(c, 0.5, -3, 1e-12))
    assert 1 <= len(drawn) <= C._BLOCK


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_at_both_ends_of_the_tol_range_is_the_per_cell_engine(kind):
    for tol in (1e-6, 1e-15):
        assert_series_column_is_per_cell(Correspondence(kind, 1), 0.9, range(-45, 46), tol)


@pytest.mark.parametrize("ks", (0.1, 0.5, 0.9, 0.95, -0.9, 0.3j), ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_term_count_from_any_start_is_the_bisection(kind, ks):
    # the series column passes the last cell's count as the start: below, at or above this cell's
    unit, (P, Q) = Correspondence(kind, 1), C._momentum_ratio(ks, 1)
    log_q, (base, sign) = C._log_abs(P) - math.log(Q), C._closed_base(kind, C._to_float(P, Q))
    checked = 0
    for m in (-400, -41, -6, -1, 1, 6, 41, 400):
        if C._series_status(kind, P, Q, m) is not SummationStatus.CONVERGED:
            continue
        for accept in (math.log(1e-6), math.log(1e-15), -1e6, math.inf):  # -1e6: no count fits; inf: N = 0
            target = accept - math.log(4) + sign * m * math.log(abs(base))
            N = C._term_count(unit, log_q, m, target)
            starts = {0, 1, N // 2, *range(N - 4, N + 5), 2 * N + 3, C._TERM_BUDGET}
            for start in sorted(n for n in starts if 0 <= n <= C._TERM_BUDGET):
                assert C._term_count(unit, log_q, m, target, start) == N, (m, accept, start)
            checked += N <= C._TERM_BUDGET
    assert checked >= 4  # the grid reaches counts the budget holds


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_that_doubles_its_count_is_the_per_cell_engine(kind, monkeypatch):
    # a size hint 1e6^|m| too large picks too few terms in every cell, so each one
    # extends its sum; the next cell then starts from the extended chains
    ms = range(-45, -25) if kind is Kind.RIGHT else range(25, 45)
    monkeypatch.setattr(C, "_closed_base", lambda kind, ks: (1e6 if ms[0] > 0 else 1e-6, 1))
    counts = []
    term_count = C._term_count
    monkeypatch.setattr(C, "_term_count", lambda *args: counts.append(term_count(*args)) or counts[-1])
    assert_series_column_is_per_cell(Correspondence(kind, Fraction(1, 2)), Fraction(8, 5), ms)
    assert len(counts) >= 2 * 2 * len(ms)  # both engines count each cell at least twice


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_across_the_term_budget_is_the_per_cell_engine(kind, monkeypatch):
    # with a budget of 300 terms the cells past |m| ~ 30 at k sigma 0.8 are unsummed, and so
    # are the cutoff cells with more than 300 terms
    monkeypatch.setattr(C, "_TERM_BUDGET", 300)
    c = Correspondence(kind, 1)
    for ks in (0.8, -0.8):
        ms = [*range(-45, -20), *range(20, 46), 299, 300, 301, -299, -300, -301]
        assert_series_column_is_per_cell(c, ks, ms)
        assert SummationStatus.UNSUMMED in {status for _, status in exponential_series_column(c, ks, ms, 1e-12)}


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_series_column_where_k_sigma_rounds_to_one_is_the_per_cell_engine(kind):
    # |k sigma| < 1 exactly, but the double base 1 + k sigma (right) or 1 - k sigma (left) is 0
    for sigma, k in ((0.9999999999999998, -1.0000000000000002), (0.9999999999999998, 1.0000000000000002)):
        assert_series_column_is_per_cell(Correspondence(kind, sigma), k, range(-6, 7))


def test_series_column_checks_tol_before_any_cell():
    with pytest.raises(ValueError):
        exponential_series_column(Correspondence(Kind.RIGHT, 1), 0.5, [], 0.0)


@pytest.mark.parametrize("tol", (math.nan, math.inf, -math.inf), ids=repr)
def test_series_column_refuses_a_tol_that_is_not_finite(tol):
    # such a tol read every convergent cell as (nan, unsummed)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        exponential_series_column(Correspondence(Kind.LEFT, 1), 0.5, [3], tol)


@pytest.mark.parametrize("kind", (Kind.RIGHT, Kind.LEFT), ids=lambda kind: kind.value)
@pytest.mark.parametrize("ks", (0.37, -0.81, 0.6 - 0.3j, 1.7j, 2.0), ids=repr)
def test_cutoff_cells_are_the_binomial_theorem(kind, ks):
    # sum_(n <= |m|) C(|m|, n) (+-k sigma)^n: the per-cell split of |m| + 1 terms, by repr
    c = Correspondence(kind, 1)
    side = 1 if kind is Kind.RIGHT else -1
    assert_series_column_is_per_cell(c, ks, [side * m for m in (0, 1, 2, 17, 150, 400)])


def test_gaussian_power_is_repeated_multiplication():
    z = C._GaussianInt(3, -7)
    for n in (0, 1, 2, 5, 64, 101):
        want = C._GaussianInt(1, 0)
        for _ in range(n):
            want = want * z
        got = z**n
        assert (got.re, got.im) == (want.re, want.im)


def integers(chains):
    """The chains' integers, Gaussian ones as (re, im) pairs."""
    return [tuple((x.re, x.im) if isinstance(x, C._GaussianInt) else x for x in chain) for chain in chains]


@pytest.mark.parametrize("ks", (Fraction(9, 10), Fraction(-1, 5), Fraction(7, 3), 0.3 + 0.4j, -0.7j), ids=repr)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_walked_chains_are_the_integers_of_a_fresh_split(kind, ks):
    # every value rounds the same integers, so the walk must reach them exactly: a
    # wrong last term moves a sum by less than its rounding, but not its integers.
    # A seeded path of steps, turns, repeats and jumps, on both sides of m = 0, with
    # N near |m| (where a symmetric chain ends) and far from it, rising and falling;
    # then its mirror image, since a walk steps only outward and the path drifts to m < 0
    rng = random.Random(f"{kind.value} {ks}")
    P, Q = C._momentum_ratio(ks, 1)
    walked = 0
    for side in (1, -1):
        walk, m = C._Walk(kind, P, Q), -30 * side
        for _ in range(400):
            m += side * rng.choice((1, 1, 1, -1, 0, 2, -7)) if abs(m) < 40 else -m // 2
            N = max(1, abs(m) + rng.choice((-3, -1, 0, 0, 1, 2, 5, 40)) if rng.random() < 0.8 else rng.randint(1, 90))
            steps = len(walk.cells) and abs(m - walk.cells[-1][0]) == 1
            got = walk.chains(m, N)
            assert integers(got) == integers(C._Walk(kind, P, Q).chains(m, N)), (m, N)
            walked += steps
    assert walked > 150
