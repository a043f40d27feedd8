"""Column kernels: each float closed form's column is its scalar function, cell by cell.

The scalar functions are the kernels at one point, so a column must give the
same repr at every cell, or raise the same exception type where the scalar
does. A column computes its base, roots and range bound once, from the whole
window; the windows here cross the zeros and the overflow and underflow
edges, so a bound that holds for one point but not for the window shows. A
copy of the per-cell basic polynomial loop, with its range check on every
step, and a copy of the per-level well loop are the references for the
hoisted range check and the spectrum's columns.
"""

import cmath
import math
import sys
from fractions import Fraction

import pytest

from umbralqm import (
    Correspondence,
    DomainError,
    Kind,
    WellLevel,
    basic_polynomial_column,
    basic_polynomial_value,
    basic_polynomial_value_log,
    infinite_well_spectrum,
    umbral_exp,
    umbral_exp_column,
    umbral_trig,
    umbral_trig_column,
    well_state_count,
)
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


def test_a_product_that_leaves_the_range_midway_is_rederived():
    # right B_2000 at sigma = e/2000: at m < 0 the factors fall from about e to sigma, so the
    # running product overflows before it comes back; at m >= 2000 they rise, so it underflows first
    c = Correspondence(Kind.RIGHT, math.e / 2000)
    ms = [-2, -1, 2000, 2001]
    values = list(basic_polynomial_column(c, 2000, ms))
    assert all(1 < v < 1e6 for v in values)
    assert list(map(repr, values)) == [repr(reference_value(c, 2000, m)) for m in ms]


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
