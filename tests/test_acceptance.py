"""End-to-end acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single summary line (visible with `pytest -s`).
"""

import io
import math
import statistics
import time

from csv_reader import read_csv
from umbralqm import (
    Correspondence,
    Kind,
    PhysicalUnits,
    SummationStatus,
    apply_hamiltonian,
    amplitude_growth,
    energy_bounds,
    infinite_well_spectrum,
    infinite_well_wavefunction,
    momentum_to_wavelength,
    umbral_exp,
    umbral_exp_series,
    umbral_trig,
    wavelength_to_momentum,
    PROTON_MASS_KG,
)
from umbralqm import invariants
from umbralqm.cli import main as cli_main

ALL_KINDS = (Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC)


def report(line):
    print(f"PASS  {line}")


def test_criterion_01_heisenberg_identity_is_exact():
    start = time.perf_counter()
    assert invariants.heisenberg(32, invariants.EXACT_SIGMAS) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"criterion 01: commutator residual exactly 0 through degree 32 ({elapsed:.2f}s)")


def test_criterion_02_delta_lowers_the_basic_sequence_exactly():
    assert invariants.lowering(32, invariants.EXACT_SIGMAS) is None
    report("criterion 02: delta p_n = n p_(n-1) exactly for n <= 32, all correspondences")


def test_criterion_03_closed_forms_match_the_product_oracle():
    assert invariants.closed_vs_product(20, 20, (*invariants.EXACT_SIGMAS, 0.2)) is None
    report("criterion 03: closed-form values equal the factor products (exact and 1e-12 float)")


def test_criterion_04_exponential_series_match_their_closed_forms():
    start = time.perf_counter()
    assert invariants.exp_series((-0.9, -0.5, -0.2, 0.2, 0.5, 0.9), 20) is None
    # infinite branches diverge at and beyond the boundary, except the
    # symmetric series at k sigma = 1: its terms fall like n^-1.5, so it
    # converges, too slowly to sum within the term budget
    for kind in ALL_KINDS:
        c = Correspondence(kind, 1)
        bad_m = {Kind.RIGHT: (-1, -3), Kind.LEFT: (1, 3), Kind.SYMMETRIC: (1, 2)}[kind]
        for ks in (1.0, 1.5, 2.0):
            want = SummationStatus.UNSUMMED if (kind, ks) == (Kind.SYMMETRIC, 1.0) else SummationStatus.DIVERGED
            for m in bad_m:
                _, status = umbral_exp_series(c, ks, m, 1e-12)
                assert status is want, (kind, ks, m, status)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"criterion 04: series equal closed forms to 1e-10; (k sigma)^2 >= 1 diverges or is unsummed ({elapsed:.2f}s)")


def test_criterion_05_wave_relations_and_minimal_waves():
    # offsets above the minimal wave (4 symmetric, 8 right/left): lengths lmin, lmin + 0.25, 10, 12, 100 and more
    assert invariants.waves(0.4, (0, 0.25, 2, 4, 6, 8, 92, 96)) is None
    assert momentum_to_wavelength(Correspondence(Kind.SYMMETRIC, 1), 1.0) == 4.0
    assert momentum_to_wavelength(Correspondence(Kind.RIGHT, 1), 1.0) == 8.0
    assert momentum_to_wavelength(Correspondence(Kind.LEFT, 1), 1.0) == 8.0
    report("criterion 05: momentum/wavelength round-trips to 1e-10; minimal waves 4 and 8 points")


def test_criterion_06_periodicity_and_amplitude_growth():
    c = Correspondence(Kind.SYMMETRIC, 1)
    for l in (6, 8, 12):
        k = wavelength_to_momentum(c, l)
        for m in range(-50, 51):
            assert abs(umbral_trig(c, k, m + l, "sin") - umbral_trig(c, k, m, "sin")) <= 1e-10
    assert abs(amplitude_growth(8, 1) - 16.0) <= 1e-10
    r = Correspondence(Kind.RIGHT, 1)
    k = wavelength_to_momentum(r, 8)
    growth = amplitude_growth(8, 1)
    for m in range(-12, 13):
        lhs = umbral_trig(r, k, m + 8, "sin")
        rhs = growth * umbral_trig(r, k, m, "sin")
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    report("criterion 06: symmetric sine period-exact for l in {6,8,12}; A1(8) = 16 envelope")


def test_criterion_07_constant_potential_eigencheck():
    assert invariants.eigencheck((0.2, 0.5, 0.9), (0.0, 1.5), 10) is None
    report("criterion 07: H(plane wave) = (k^2 + V0)(plane wave) to 1e-10, all correspondences")


def test_criterion_08_energy_bounds_reach_their_targets():
    assert invariants.bound_targets() is None
    proton = energy_bounds(PhysicalUnits(mass=PROTON_MASS_KG))
    assert abs(proton.e_max_space_ev - 7.94e46) <= 0.02 * 7.94e46
    report("criterion 08: energy ceilings 1.22e28 eV (1%), 1.46e50 eV and 7.94e46 eV (2%)")


def test_criterion_09_infinite_well_spectra():
    for kind in ALL_KINDS:
        for M in (8, 16, 32):
            c = Correspondence(kind, 1.0)
            spec = infinite_well_spectrum(c, M)
            assert len(spec.levels) == M // 2
            if kind is not Kind.SYMMETRIC:
                assert not spec.levels[M // 2 - 1].physical
            else:
                assert all(lv.energy <= 1.0 + 1e-12 for lv in spec.levels)
            for n in range(1, M):
                assert spec.energy_of(n) == spec.energy_of(M - n)
            for lv in spec.levels:
                if not lv.convergent:
                    continue
                psi = infinite_well_wavefunction(c, M, lv.n)
                out = apply_hamiltonian(c, 0.0, psi)
                resid = max(abs(out.value(m) - lv.energy * psi.value(m)) for m in out.indices())
                assert resid <= 1e-9 * max(psi.moduli()), (kind, M, lv.n, resid)
    report("criterion 09: well residuals <= 1e-9, exact degeneracy, floor(M/2) states, pole flagged")


def test_criterion_10_continuum_limits():
    start = time.perf_counter()
    for kind, order in ((Kind.RIGHT, 1), (Kind.LEFT, 1), (Kind.SYMMETRIC, 2)):
        errors, logs = [], []
        for sigma in (0.1, 0.05, 0.025):
            c = Correspondence(kind, sigma)
            err = abs(umbral_exp(c, 1.0, round(1 / sigma)) - math.e)
            errors.append(math.log(err))
            logs.append(math.log(sigma))
        slope = statistics.linear_regression(logs, errors).slope
        assert abs(slope - order) <= 0.2, (kind, slope)
    for kind in ALL_KINDS:
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
            assert abs(slope - 2) <= 0.2, (kind, n, slope)
            if kind is Kind.SYMMETRIC:
                assert previous <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 10: exponential orders >= 1/1/2 and well energies O(M^-2), <= 1% at M=256 ({elapsed:.2f}s)")


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _columns(text):
    return {name: values for name, values in read_csv(io.StringIO(text)).columns}


def test_criterion_11_figure_data_reproduction(capsys, tmp_path):
    # discrete powers: symmetric zeros interleave the origin
    code, out = _run_cli(
        capsys, "polys", "--n", "2,3", "--sigma", "0.2", "--corr", "symmetric", "--window=-10:10"
    )
    assert code == 0
    cols = _columns(out)
    zeros3 = [m for m, v in zip(cols["m"], cols["symmetric_n3"]) if v == 0]
    assert zeros3 == [-1, 0, 1]
    zeros2 = [m for m, v in zip(cols["m"], cols["symmetric_n2"]) if v == 0]
    assert zeros2 == [0]

    # exponential at sigma = 0.2: right closed form sits below the continuous curve
    code, out = _run_cli(capsys, "exp", "--k", "1", "--sigma", "0.2", "--window=-10:10")
    assert code == 0
    cols = _columns(out)
    for m, closed, cont in zip(cols["m"], cols["right_closed"], cols["continuous"]):
        assert abs(closed - 1.2**m) <= 1e-12 * abs(1.2**m)
        if m > 0:
            assert closed < cont

    # sine at sigma = 0.3: symmetric periodic, right grows by A1 per period
    code, out = _run_cli(
        capsys, "trig", "--l", "12", "--sigma", "0.3", "--corr", "symmetric", "--window=-24:24"
    )
    assert code == 0
    cols = _columns(out)
    values = dict(zip(cols["m"], cols["symmetric_sin"]))
    assert all(abs(values[m + 12] - values[m]) <= 1e-10 for m in range(-12, 13))

    code, out = _run_cli(capsys, "trig", "--l", "8", "--sigma", "0.3", "--corr", "right", "--window=0:16")
    assert code == 0
    cols = _columns(out)
    values = dict(zip(cols["m"], cols["right_sin"]))
    assert all(abs(values[m]) <= 1e-8 for m in (0, 4, 8, 12, 16))
    assert abs(values[10] / values[2] - 16.0) <= 1e-9

    # infinite well: symmetric spectrum hugs the continuous one, right/left lean
    base = tmp_path / "well"
    code, out = _run_cli(
        capsys, "well", "--points", "8", "--levels", "1", "--corr", "all", "--out", str(base)
    )
    assert code == 0
    with open(tmp_path / "well_spectrum.csv", encoding="utf-8") as handle:
        cols = {name: values for name, values in read_csv(handle).columns}
    rows = list(zip(cols["correspondence"], cols["n"], cols["energy"], cols["energy_continuous"]))
    sym = next(r for r in rows if r[0] == "symmetric" and r[1] == 1)
    rgt = next(r for r in rows if r[0] == "right" and r[1] == 1)
    assert abs(sym[2] - sym[3]) < abs(rgt[2] - rgt[3])

    def psi_of(name):
        with open(tmp_path / f"well_wavefunction_{name}_n1.csv", encoding="utf-8") as handle:
            table = {n: v for n, v in read_csv(handle).columns}
        return table["psi"]

    psi_right, psi_left, psi_sym = psi_of("right"), psi_of("left"), psi_of("symmetric")
    assert abs(psi_right[5]) > 1.1 * abs(psi_right[3])  # leans right of center
    assert abs(psi_left[3]) > 1.1 * abs(psi_left[5])  # mirror image leans left
    assert abs(abs(psi_sym[5]) - abs(psi_sym[3])) <= 1e-10  # symmetric stays centered
    for psi in (psi_right, psi_left, psi_sym):
        assert abs(psi[0]) <= 1e-10 and abs(psi[8]) <= 1e-10
    report("criterion 11: emitted tables show the zero patterns, asymmetry and symmetric fit")
