"""The infinite well against its lattice eigenproblem, solved as a matrix.

-delta^2 psi = E psi holds at the interior points of the M-point well, with psi = 0 at both walls.
The symmetric delta = (T - T^-1)/(2 sigma) reaches two points to each side, so psi is continued oddly
past both walls and the problem is an ordinary symmetric one on psi(1..M-1). The right/left second
difference reaches two points to one side: of its M-1 rows, m = 0..M-2 forward or m = 2..M backward,
one has E psi(m) at a wall, so the problem is the generalized A psi = E B psi with a singular B,
whose finite eigenvalues are the well's physical energies.
"""

import numpy as np
import pytest
import scipy.linalg

from umbralqm import (
    Correspondence,
    DomainError,
    Kind,
    NonPhysicalStateError,
    infinite_well_spectrum,
    infinite_well_wavefunction,
)

WELLS = [4, 6, 7, 8, 13, 16]
SIGMAS = [0.3, 1.0]


def symmetric_problem(M: int, sigma: float):
    """(A, B): -delta^2 on psi(1..M-1), psi(-m) = -psi(m) and psi(M+m) = -psi(M-m); B = 1."""
    A = np.zeros((M - 1, M - 1))
    for m in range(1, M):
        for offset, weight in ((-2, 1.0), (0, -2.0), (2, 1.0)):
            j, sign = m + offset, 1.0
            if j < 0 or j > M:
                j, sign = (-j if j < 0 else 2 * M - j), -1.0
            if 0 < j < M:
                A[m - 1, j - 1] -= sign * weight / (4 * sigma * sigma)
    return A, np.eye(M - 1)


def one_sided_problem(kind: Kind, M: int, sigma: float):
    """(A, B): rows m = 0..M-2 of -(psi(m+2) - 2 psi(m+1) + psi(m))/sigma^2 (right), or rows m = 2..M
    of -(psi(m) - 2 psi(m-1) + psi(m-2))/sigma^2 (left), on psi(1..M-1); B reads psi(m) in row m."""
    A, B = np.zeros((M - 1, M - 1)), np.zeros((M - 1, M - 1))
    rows = range(0, M - 1) if kind is Kind.RIGHT else range(2, M + 1)
    step = 1 if kind is Kind.RIGHT else -1
    for row, m in enumerate(rows):
        for j, weight in ((m, 1.0), (m + step, -2.0), (m + 2 * step, 1.0)):
            if 0 < j < M:
                A[row, j - 1] -= weight / (sigma * sigma)
        if 0 < m < M:
            B[row, m - 1] = 1.0
    return A, B


def problem(kind: Kind, M: int, sigma: float):
    return symmetric_problem(M, sigma) if kind is Kind.SYMMETRIC else one_sided_problem(kind, M, sigma)


def assert_close(got, want):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (got, want)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("M", WELLS)
def test_symmetric_eigenvalues_are_every_levels_energy(M, sigma):
    spectrum = infinite_well_spectrum(Correspondence(Kind.SYMMETRIC, sigma), M)
    A, _ = symmetric_problem(M, sigma)
    assert np.array_equal(A, A.T)
    assert_close(sorted(np.linalg.eigvalsh(A)), sorted(spectrum.energy_of(n) for n in range(1, M)))


@pytest.mark.parametrize("kind", [Kind.RIGHT, Kind.LEFT])
@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("M", WELLS)
def test_one_sided_finite_eigenvalues_are_the_physical_energies(kind, M, sigma):
    spectrum = infinite_well_spectrum(Correspondence(kind, sigma), M)
    eigenvalues = scipy.linalg.eig(*one_sided_problem(kind, M, sigma), right=False)
    finite = sorted(e.real for e in eigenvalues if np.isfinite(e))
    assert all(abs(e.imag) <= 1e-12 * max(1.0, abs(e)) for e in eigenvalues if np.isfinite(e))
    assert_close(finite, sorted(e for e, physical in zip(spectrum.energy, spectrum.physical) if physical))


@pytest.mark.parametrize("kind", [Kind.RIGHT, Kind.LEFT, Kind.SYMMETRIC])
@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("M", WELLS)
def test_every_emitted_wavefunction_is_an_eigenvector(kind, M, sigma):
    c = Correspondence(kind, sigma)
    spectrum = infinite_well_spectrum(c, M)
    A, B = problem(kind, M, sigma)
    emitted = 0
    for n in range(1, M):
        try:
            psi = np.array(infinite_well_wavefunction(c, M, n).values[1:M])
        except (NonPhysicalStateError, DomainError):
            continue
        emitted += 1
        E_psi = spectrum.energy_of(n) * (B @ psi)
        residual = np.max(np.abs(A @ psi - E_psi))
        assert residual <= 1e-12 * max(1.0, np.max(np.abs(E_psi))), (n, residual)
    assert emitted
