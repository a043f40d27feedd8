"""Time separation, constant-potential eigenchecks, energy bounds, infinite well."""

import math
import random
import statistics
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralqm import (
    Correspondence,
    DiscreteFunction,
    EV_J,
    DomainError,
    Kind,
    NonPhysicalStateError,
    PhysicalUnits,
    PlaneWaveState,
    WindowTooSmallError,
    apply_hamiltonian,
    basic_polynomial,
    basic_polynomial_value,
    energy_bounds,
    energy_scale_ev,
    infinite_well_max_energy_log10,
    infinite_well_spectrum,
    infinite_well_wavefunction,
    lattice_delta,
    left,
    right,
    separate,
    symmetric,
    umbral_trig,
    well_momentum,
    well_state_count,
    PROTON_MASS_KG,
)
from umbralqm.schrodinger import _level_classes, _well_levels

ALL_KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)


class TestSeparate:
    def test_zero_energy_is_constant(self):
        table = separate(0.0, 1.0, 6)
        assert all(v == 1.0 for v in table.values)

    def test_symmetric_evolution_is_unimodular(self):
        table = separate(0.5, 1.0, 10)
        assert max(abs(mod - 1.0) for mod in table.moduli()) < 1e-14
        want = 0.5j + math.sqrt(0.75)
        assert abs(table.value(1) - want) < 1e-14

    def test_right_evolution_is_not_unimodular(self):
        table = separate(0.5, 1.0, 2, kind=Kind.RIGHT)
        assert abs(table.value(2) - (1 + 0.5j) ** 2) < 1e-14
        assert abs(abs(table.value(2)) - 1.25) < 1e-14

    def test_temporal_bound(self):
        with pytest.raises(DomainError):
            separate(1.0, 1.0, 3)
        with pytest.raises(DomainError):
            separate(0.5, 2.0, 3)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            separate(0.1, -1.0, 3)
        with pytest.raises(ValueError):
            separate(0.1, 1.0, -1)

    @pytest.mark.parametrize("E, tau", [(0.0, math.inf), (0.5, math.nan), (0.1, -math.inf)])
    def test_a_tau_that_is_not_positive_and_finite_is_refused(self, E, tau):
        # an inf or nan tau passed "tau <= 0" and was refused as a claim about E
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            separate(E, tau, 3)

    def test_a_nan_energy_is_outside_the_temporal_bound(self):
        # |nan tau| >= 1 is false: the samples were nan
        with pytest.raises(DomainError):
            separate(math.nan, 0.1, 2)


class TestPlaneWaves:
    def test_requires_an_amplitude(self):
        with pytest.raises(ValueError):
            PlaneWaveState(right(1), 0.5, 0.0, 0.0)

    def test_reversed_window_is_rejected(self):
        with pytest.raises(ValueError):
            PlaneWaveState(right(1), 0.5).tabulate((3, 1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("oscillatory", [True, False], ids=["oscillatory", "evanescent"])
    def test_sample_is_the_tabulated_cell(self, kind, oscillatory):
        state = PlaneWaveState(Correspondence(kind, 0.3), 1.7, 0.8, -0.25j, oscillatory=oscillatory)
        table = state.tabulate((-40, 40))
        for m in range(-40, 41):
            assert repr(state.sample(m)) == repr(table.value(m))

    @pytest.mark.parametrize(
        "oscillatory, expected",
        [(True, [2, 1.5, 0.5, -0.875]), (False, [2, 2.5, 3.5, 5.125])],
        ids=["oscillatory", "evanescent"],
    )
    def test_samples_read_each_cell_once(self, oscillatory, expected):
        # an iterator gives its cells once: each cell's forward value pairs with its own backward value
        state = PlaneWaveState(right(1), 0.5, 1, 1, oscillatory=oscillatory)
        expected = list(map(repr, map(complex, expected)))
        assert list(map(repr, state._samples([1, 2, 3, 4]))) == expected
        assert list(map(repr, state._samples(iter([1, 2, 3, 4])))) == expected

    def test_constant_function_feels_only_the_potential(self):
        psi = DiscreteFunction(1.0, -4, [1.0] * 9)
        for kind in ALL_KINDS:
            out = apply_hamiltonian(Correspondence(kind, 1), 5.0, psi)
            assert all(abs(v - 5.0) < 1e-14 for v in out.values)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("ks", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("v0", [0.0, 2.0])
    def test_plane_wave_eigencheck(self, kind, ks, v0):
        c = Correspondence(kind, 1.0)
        psi = PlaneWaveState(c, ks, 1.0, 0.3j).tabulate((-8, 8))
        out = apply_hamiltonian(c, v0, psi)
        energy = ks**2 + v0
        sup = max(abs(psi.value(m)) for m in psi.indices())
        resid = max(abs(out.value(m) - energy * psi.value(m)) for m in out.indices())
        assert resid <= 1e-10 * sup

    def test_evanescent_wave_eigencheck(self):
        # E < V0: real exponentials, energy V0 - k^2
        c = symmetric(1.0)
        psi = PlaneWaveState(c, 0.4, 1.0, 0.5, oscillatory=False).tabulate((-6, 6))
        out = apply_hamiltonian(c, 3.0, psi)
        energy = 3.0 - 0.4**2
        for m in out.indices():
            assert abs(out.value(m) - energy * psi.value(m)) <= 1e-10 * abs(psi.value(m))

    def test_symmetric_sine_eigencheck_with_potential(self):
        c = symmetric(1.0)
        k = 0.5
        values = [umbral_trig(c, k, m, "sin") for m in range(-8, 9)]
        psi = DiscreteFunction(1.0, -8, values)
        out = apply_hamiltonian(c, 2.0, psi)
        for m in out.indices():
            want = (k**2 + 2.0) * psi.value(m)
            assert abs(out.value(m) - want) <= 1e-10

    def test_window_shrinks_by_the_stencil(self):
        psi = DiscreteFunction(1.0, 0, [float(m) for m in range(9)])
        assert apply_hamiltonian(right(1), 0.0, psi).window == (0, 6)
        assert apply_hamiltonian(left(1), 0.0, psi).window == (2, 8)
        assert apply_hamiltonian(symmetric(1), 0.0, psi).window == (2, 6)

    def test_window_too_small(self):
        psi = DiscreteFunction(1.0, 0, [1.0, 2.0, 3.0])
        with pytest.raises(WindowTooSmallError):
            apply_hamiltonian(symmetric(1), 0.0, psi)

    @pytest.mark.parametrize("spacing", [0.5, math.nan, math.inf])
    def test_spacing_mismatch_rejected(self, spacing):
        psi = DiscreteFunction(spacing, 0, [1.0] * 9)
        with pytest.raises(ValueError):
            lattice_delta(right(1), psi)


def reference_delta(c, f):
    """The difference step spelled per kind, sample by sample (an independent stencil)."""
    s = c.sigma_float()
    if not abs(f.sigma - s) <= 1e-12 * s:
        raise ValueError("sample spacing does not match the correspondence")
    lo_cut, hi_cut = {Kind.RIGHT: (0, 1), Kind.LEFT: (1, 0), Kind.SYMMETRIC: (1, 1)}[c.kind]
    lo, hi = f.m_min + lo_cut, f.m_max - hi_cut
    if lo > hi:
        raise WindowTooSmallError("window too small for one difference step")
    values = []
    for m in range(lo, hi + 1):
        if c.kind is Kind.RIGHT:
            values.append((f.value(m + 1) - f.value(m)) / s)
        elif c.kind is Kind.LEFT:
            values.append((f.value(m) - f.value(m - 1)) / s)
        else:
            values.append((f.value(m + 1) - f.value(m - 1)) / (2 * s))
    return DiscreteFunction(f.sigma, lo, values)


def reference_hamiltonian(c, V0, psi):
    second = reference_delta(c, reference_delta(c, psi))
    return DiscreteFunction(psi.sigma, second.m_min, [-second.value(m) + V0 * psi.value(m) for m in second.indices()])


def outcome(op, *args):
    """repr of the result, or the exception type: two stencils agree iff the outcomes are equal."""
    try:
        return repr(op(*args))
    except Exception as exc:
        return type(exc)


STENCIL_SPACINGS = (1.0, 0.3, 1e-300, 1e300)
SPECIAL_SAMPLES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -2.5e-310])
SAMPLES = SPECIAL_SAMPLES | st.floats() | st.complex_numbers() | st.builds(complex, SPECIAL_SAMPLES, SPECIAL_SAMPLES)


@settings(max_examples=400)
@given(
    kind=st.sampled_from(ALL_KINDS),
    sigma=st.sampled_from(STENCIL_SPACINGS),
    spacing=st.sampled_from(STENCIL_SPACINGS),
    m_min=st.integers(-5, 5),
    values=st.lists(SAMPLES, min_size=1, max_size=12),
    v0=SPECIAL_SAMPLES | st.floats(),
)
def test_stencil_matches_the_per_kind_formulas(kind, sigma, spacing, m_min, values, v0):
    # one spacing in four matches: the rest must raise on both sides
    c, f = Correspondence(kind, sigma), DiscreteFunction(spacing, m_min, values)
    assert outcome(lattice_delta, c, f) == outcome(reference_delta, c, f)
    assert outcome(apply_hamiltonian, c, v0, f) == outcome(reference_hamiltonian, c, v0, f)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lattice_delta_lowers_the_basic_samples_exactly(kind):
    # delta B_n = n B_(n-1) on the lattice; at sigma = 1 and |m| <= 30 every sample is an integer below 2**53
    c = Correspondence(kind, 1)
    for n in range(1, 11):
        f = DiscreteFunction(1.0, -30, [basic_polynomial_value(c, n, m) for m in range(-30, 31)])
        assert max(f.moduli()) < 2**53
        lowered = lattice_delta(c, f)
        assert lowered.values == [n * basic_polynomial_value(c, n - 1, m) for m in lowered.indices()]


def exact_samples(c, n, ms):
    """B_n of c at x = m sigma for each m of ms, from its exact coefficient form."""
    b = basic_polynomial(c, n)
    return DiscreteFunction(c.sigma, ms.start, [b(m * c.sigma) for m in ms])


def test_an_exact_spacing_lowers_exact_samples_exactly():
    # right delta B_3 = 3 B_2 at sigma = 1/3, every value a Fraction
    c = right(Fraction(1, 3))
    lowered = lattice_delta(c, exact_samples(c, 3, range(8)))
    assert lowered.values == [Fraction(v) for v in (0, 0, Fraction(2, 3), 2, 4, Fraction(20, 3), 10)]
    assert all(type(v) is Fraction for v in lowered.values)
    assert lowered.values == [3 * v for v in exact_samples(c, 2, range(7)).values]


def test_an_exact_spacing_keeps_the_hamiltonian_exact():
    # symmetric delta^2 B_4 = 12 B_2, so (-delta^2 + 2) B_4 = -12 B_2 + 2 B_4
    c = symmetric(Fraction(1, 3))
    out = apply_hamiltonian(c, 2, exact_samples(c, 4, range(-6, 7)))
    b2, b4 = (exact_samples(c, n, out.indices()).values for n in (2, 4))
    assert out.values == [-12 * u + 2 * v for u, v in zip(b2, b4)]
    assert all(type(v) is Fraction for v in out.values)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("sigma", [0.3, 1, Fraction(1, 3)], ids=["float", "int", "fraction"])
def test_float_and_complex_samples_keep_their_float_bits(kind, sigma):
    # the step N sigma is exact in any number, and a float or complex divided by it rounds once
    c, rng = Correspondence(kind, sigma), random.Random(7)
    lo, hi = {Kind.RIGHT: (0, 1), Kind.LEFT: (-1, 0), Kind.SYMMETRIC: (-1, 1)}[kind]
    n = 2 if kind is Kind.SYMMETRIC else 1
    floats = [rng.uniform(-1e3, 1e3) for _ in range(40)]
    complexes = [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(40)]
    for values in (floats, complexes):
        lowered = lattice_delta(c, DiscreteFunction(c.sigma_float(), 0, values))
        want = [(a - b) / (n * c.sigma_float()) for a, b in zip(values[hi - lo :], values)]
        assert lowered.m_min == -lo
        assert list(map(repr, lowered.values)) == list(map(repr, want))


class TestEnergyBounds:
    def test_time_bound_at_planck_time(self):
        bounds = energy_bounds(PhysicalUnits())
        assert abs(bounds.e_max_time_ev - 1.22e28) <= 0.01 * 1.22e28

    def test_electron_space_bound_at_planck_length(self):
        bounds = energy_bounds(PhysicalUnits())
        assert abs(bounds.e_max_space_ev - 1.46e50) <= 0.02 * 1.46e50

    def test_proton_space_bound_at_planck_length(self):
        bounds = energy_bounds(PhysicalUnits(mass=PROTON_MASS_KG))
        assert abs(bounds.e_max_space_ev - 7.94e46) <= 0.02 * 7.94e46

    def test_binding_bound_is_the_minimum(self):
        bounds = energy_bounds(PhysicalUnits())
        assert bounds.binding_ev == min(bounds.e_max_time_ev, bounds.e_max_space_ev)

    def test_scale_matches_space_bound(self):
        u = PhysicalUnits()
        assert energy_scale_ev(u) == energy_bounds(u).e_max_space_ev

    @pytest.mark.parametrize(
        "units",
        [
            PhysicalUnits(mass=1e-30, sigma_m=1e-150),  # 2 m sigma^2 underflows to 0; the bound is 3e280 eV
            PhysicalUnits(sigma_m=1e200),  # sigma^2 overflows; the bound is 1e-420 eV
            PhysicalUnits(tau_s=1e300),  # hbar/tau underflows to 0 before / EV_J; the bound is 6.6e-316 eV
            PhysicalUnits(mass=1e-300, sigma_m=1e-160),  # the bound is 3e334 eV
        ],
    )
    def test_bounds_are_the_exact_quotients_rounded_once(self, units):
        hbar, mass, sigma, tau, ev = map(Fraction, (units.hbar, units.mass, units.sigma_m, units.tau_s, EV_J))
        bounds = energy_bounds(units)
        space, time = hbar**2 / (2 * mass * sigma**2 * ev), hbar / (tau * ev)
        for value, exact in ((bounds.e_max_space_ev, space), (bounds.e_max_time_ev, time)):
            with mpmath.workdps(40):
                want = float(mpmath.mpf(exact.numerator) / exact.denominator)
            assert value == want or abs(value - want) <= 1e-15 * want, (value, want)

    def test_units_must_be_positive(self):
        with pytest.raises(ValueError):
            PhysicalUnits(mass=-1.0)

    @pytest.mark.parametrize("name", ["hbar", "mass", "sigma_m", "tau_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_units_must_be_finite(self, name, value):
        # an infinite mass made energy_bounds raise OverflowError
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            PhysicalUnits(**{name: value})


class TestWellSpectrum:
    def test_symmetric_four_point_well(self):
        spec = infinite_well_spectrum(symmetric(1), 4)
        assert len(spec.levels) == 2
        assert abs(spec.levels[0].momentum - math.sin(math.pi / 4)) < 1e-15
        assert abs(spec.levels[0].energy - 0.5) < 1e-15
        assert abs(spec.levels[1].momentum - 1.0) < 1e-15
        assert spec.levels[1].convergent  # boundary state keeps its closed form

    def test_right_four_point_well(self):
        spec = infinite_well_spectrum(right(1), 4)
        assert abs(spec.levels[0].energy - 1.0) < 1e-14
        assert not spec.levels[0].convergent  # k sigma = 1 is the boundary
        assert not spec.levels[1].physical
        assert math.isinf(spec.levels[1].energy)

    def test_level_count_is_half_the_points(self):
        for kind in ALL_KINDS:
            for M in (2, 5, 8, 33, 64):
                spec = infinite_well_spectrum(Correspondence(kind, 1), M)
                assert len(spec.levels) == M // 2

    def test_state_counts(self):
        assert well_state_count(right(1), 8) == (4, 3, 1)
        assert well_state_count(left(1), 8) == (4, 3, 1)
        assert well_state_count(symmetric(1), 8) == (4, 4, 4)
        for kind in ALL_KINDS:
            assert well_state_count(Correspondence(kind, 1), 2)[0] == 1

    def test_degeneracy_partners_share_energy(self):
        for kind in ALL_KINDS:
            for M in (8, 16, 32):
                spec = infinite_well_spectrum(Correspondence(kind, 1), M)
                for n in range(1, M):
                    assert spec.energy_of(n) == spec.energy_of(M - n)
                for n, partner in spec.degeneracy_pairs:
                    assert partner == M - n
                # the quantum rules themselves agree to rounding
                for n in range(1, M // 2):
                    if kind is Kind.SYMMETRIC:
                        direct = (math.sin(math.pi * (M - n) / M)) ** 2
                    else:
                        direct = (math.tan(math.pi * (M - n) / M)) ** 2
                    assert abs(direct - spec.energy_of(M - n)) <= 1e-12 * max(1.0, direct)

    def test_symmetric_energies_are_bounded(self):
        for M in (4, 9, 64, 1000):
            for sigma in (0.5, 1.0):
                spec = infinite_well_spectrum(symmetric(sigma), M)
                assert all(lv.energy <= 1 / sigma**2 + 1e-12 for lv in spec.levels)

    @pytest.mark.parametrize("kind", (Kind.RIGHT, Kind.LEFT))
    def test_convergent_levels_are_the_float_rule_for_every_small_well(self, kind):
        # the float rule the integer one replaced: tan(pi n/M) below 1 by more than 1e-12
        for M in range(2, 801):
            spec = infinite_well_spectrum(Correspondence(kind, 0.3), M)
            want = [n != M / 2 and math.tan(math.pi * n / M) < 1.0 - 1e-12 for n in spec.n]
            assert list(spec.convergent) == want, M

    def test_level_classes_are_the_float_rule_next_to_a_quarter_of_huge_wells(self):
        rng = random.Random(15)
        for M in (rng.randrange(4, 10**10) for _ in range(2000)):
            ns = range(M // 4 - 2, M // 4 + 3)
            floated = [math.tan(math.pi * n / M) < 1.0 - 1e-12 for n in ns]
            assert [cls == "convergent" for cls in _level_classes(Kind.RIGHT, M, ns)] == floated, M

    def test_well_momentum_pole(self):
        with pytest.raises(NonPhysicalStateError):
            well_momentum(right(1), 8, 4)
        assert well_momentum(right(1), 8, 5) < 0  # mirror branch

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            infinite_well_spectrum(right(1), 1)
        with pytest.raises(ValueError, match="M must be >= 2"):
            infinite_well_wavefunction(right(1), 1, 1)

    @pytest.mark.parametrize(
        ("M", "n", "error", "message"),
        [
            (1, 0, ValueError, "M must be >= 2"),
            (8, 0, ValueError, r"n must lie in \[1, M-1\]"),
            (8, 10**400, ValueError, r"n must lie in \[1, M-1\]"),
            (8, 4, NonPhysicalStateError, "tan pole"),
        ],
    )
    def test_well_momentum_checks_the_well_then_the_level_then_the_pole(self, M, n, error, message):
        with pytest.raises(error, match=message):
            well_momentum(right(1), M, n)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize(
        ("M", "a", "b"),
        # M = 16: the boundary 4n = M is n = 4 and the pole n = M/2 is n = 8; M = 17 has neither
        [(16, 1, 4), (16, 4, 5), (16, 4, 8), (16, 5, 9), (16, 8, 9), (16, 1, 9), (17, 1, 2), (17, 3, 9), (17, 8, 9)],
    )
    def test_a_chunks_record_is_a_slice_of_the_whole(self, kind, M, a, b):
        c = Correspondence(kind, 0.3)
        whole, chunk = infinite_well_spectrum(c, M), _well_levels(c, M, range(a, b))
        assert chunk.n == range(a, b)
        for field in whole._fields:
            want = getattr(whole, field)
            want = want[a - 1 : b - 1] if isinstance(want, (tuple, range)) else want
            assert repr(getattr(chunk, field)) == repr(want), field
        assert repr(chunk.levels) == repr(whole.levels[a - 1 : b - 1])
        for n in range(1, M):
            if min(n, M - n) in chunk.n:
                assert repr(chunk.energy_of(n)) == repr(whole.energy_of(n))
            else:
                with pytest.raises(ValueError):
                    chunk.energy_of(n)

    @pytest.mark.parametrize("n", [0, 8])
    def test_energy_of_rejects_levels_outside_the_well(self, n):
        with pytest.raises(ValueError, match=r"\[1, M-1\]"):
            infinite_well_spectrum(symmetric(1), 8).energy_of(n)


class TestWellWavefunctions:
    def test_symmetric_ground_state_is_a_pure_sine(self):
        wf = infinite_well_wavefunction(symmetric(1), 8, 1)
        assert (wf.sigma, wf.window) == (1.0, (0, 8))
        for m in range(9):
            assert abs(wf.values[m] - math.sin(math.pi * m / 8)) <= 1e-12

    def test_boundary_conditions(self):
        for kind in ALL_KINDS:
            for M in (8, 16):
                c = Correspondence(kind, 1)
                spec = infinite_well_spectrum(c, M)
                for lv in spec.levels:
                    if not lv.convergent:
                        continue
                    wf = infinite_well_wavefunction(c, M, lv.n)
                    assert abs(wf.values[0]) <= 1e-10 * max(wf.moduli())
                    assert abs(wf.values[-1]) <= 1e-10 * max(wf.moduli())

    def test_right_envelope_is_asymmetric(self):
        wf = infinite_well_wavefunction(right(1), 8, 1)
        # envelope: psi(M-m) = psi(m) * sec(pi/8)^(M-2m); the peak pair (4,5)
        # ties exactly, so asymmetry shows against the (3,5) mirror pair
        assert abs(wf.values[5]) > 1.1 * abs(wf.values[3])
        assert wf.moduli().index(max(wf.moduli())) in (4, 5)
        mirrored = infinite_well_wavefunction(left(1), 8, 1)
        assert abs(mirrored.values[3]) > 1.1 * abs(mirrored.values[5])

    def test_symmetric_envelope_is_symmetric(self):
        wf = infinite_well_wavefunction(symmetric(1), 8, 1)
        for m in range(9):
            assert abs(abs(wf.values[m]) - abs(wf.values[8 - m])) <= 1e-12

    def test_non_physical_state_rejected(self):
        with pytest.raises(NonPhysicalStateError):
            infinite_well_wavefunction(right(1), 8, 4)

    def test_non_convergent_state_rejected(self):
        with pytest.raises(DomainError):
            infinite_well_wavefunction(right(1), 8, 3)  # tan(3 pi/8) > 1

    @pytest.mark.parametrize("kind", (Kind.RIGHT, Kind.LEFT))
    @pytest.mark.parametrize("sigma", [1.0, 0.2, 0.3, 0.7, 2.0, 3.3, 1e-300, 1e300, 1.7e308], ids=repr)
    @pytest.mark.parametrize("M", [4, 8, 52, 200, 1000])
    def test_boundary_levels_are_the_minimal_wave_whatever_k_sigma_rounds_to(self, kind, sigma, M):
        # 4n = M and 4n = 3M have |k sigma| = 1 exactly: both are emitted, as one state up to sign;
        # at k sigma = 1, e(ik) is (1 + i)^m (right) or ((1 + i)/2)^m (left)
        c = Correspondence(kind, sigma)
        low, high = infinite_well_wavefunction(c, M, M // 4), infinite_well_wavefunction(c, M, 3 * M // 4)
        base = 1 + 1j if kind is Kind.RIGHT else (1 + 1j) / 2
        want = [(base**m).imag for m in range(M + 1)]
        top = max(map(abs, want))
        assert all(abs(v - w) <= 1e-10 * top for v, w in zip(low.values, want))
        assert all(abs(v + w) <= 1e-10 * top for v, w in zip(high.values, want))

    def test_the_eight_point_minimal_wave_at_level_six(self):
        wf = infinite_well_wavefunction(right(1.0), 8, 6)
        assert wf.window == (0, 8)
        assert abs(wf.values[2] + 2.0) <= 1e-15  # e(-i) = (1 - i)^m, imag part -2 at m = 2

    def test_level_range_validated(self):
        with pytest.raises(ValueError):
            infinite_well_wavefunction(symmetric(1), 8, 0)
        with pytest.raises(ValueError):
            infinite_well_wavefunction(symmetric(1), 8, 8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("M", [8, 16, 32])
    def test_eigen_residuals_on_the_interior(self, kind, M):
        c = Correspondence(kind, 1.0)
        spec = infinite_well_spectrum(c, M)
        for lv in spec.levels:
            if not lv.convergent:
                continue
            psi = infinite_well_wavefunction(c, M, lv.n)
            out = apply_hamiltonian(c, 0.0, psi)
            resid = max(abs(out.value(m) - lv.energy * psi.value(m)) for m in out.indices())
            assert resid <= 1e-9 * max(psi.moduli())


class TestWellContinuum:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_energies_approach_the_continuous_spectrum(self, kind):
        # fixed well width L = 1, so sigma = 1/M
        for n in (1, 2, 3):
            rel_errors, logs = [], []
            previous = None
            for M in (64, 128, 256):
                sigma = 1.0 / M
                spec = infinite_well_spectrum(Correspondence(kind, sigma), M)
                exact = (n * math.pi) ** 2
                rel = abs(spec.levels[n - 1].energy - exact) / exact
                if previous is not None:
                    assert rel < previous
                previous = rel
                rel_errors.append(math.log(rel))
                logs.append(math.log(sigma))
            slope = statistics.linear_regression(logs, rel_errors).slope
            assert abs(slope - 2) <= 0.2
            if kind is Kind.SYMMETRIC:
                assert previous <= 0.01


class TestMaxEnergyEstimate:
    def test_log_form_matches_direct_evaluation(self):
        u = PhysicalUnits()
        M = 51
        direct = energy_scale_ev(u) * math.tan(math.pi * (M - 1) / (2 * M)) ** 2
        assert abs(infinite_well_max_energy_log10(u, M) - math.log10(direct)) < 1e-9

    @pytest.mark.parametrize("M", [3, 4, 50, 51, 1000, 1001])
    def test_top_energy_is_the_spectrum_top_physical_level(self, M):
        u = PhysicalUnits()
        spec = infinite_well_spectrum(right(1.0), M)
        top = max(e for e, physical in zip(spec.energy, spec.physical) if physical)
        assert abs(infinite_well_max_energy_log10(u, M) - math.log10(energy_scale_ev(u) * top)) < 1e-9

    def test_bohr_scale_well_is_astronomically_bounded(self):
        # electron in a well of one Bohr radius, Planck-length lattice
        M = round(5.29177210903e-11 / 1.62e-35)
        log10_e = infinite_well_max_energy_log10(PhysicalUnits(), M)
        assert 70 < log10_e < 120

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="M must be >= 3"):
            infinite_well_max_energy_log10(PhysicalUnits(), 2)

    def test_a_point_count_that_is_not_an_int_raises(self):
        # as every other well function does; 3.5 read as a three-and-a-half-point well
        with pytest.raises(TypeError):
            infinite_well_max_energy_log10(PhysicalUnits(), 3.5)
