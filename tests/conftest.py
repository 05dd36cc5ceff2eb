"""Shared seeded random-object helpers, computational-basis preparations, a
density-matrix check and the unprojected estimate of a reconstruction, for the
test suite."""

import numpy as np
import pytest

from ccxlab import tomography
from ccxlab.circuits import Circuit
from ccxlab.gates import x


def _ginibre(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def basis_circuit(index, num_qubits=3):
    """Native circuit preparing the basis state |index> from |0...0>; bit q is qubit q."""
    return Circuit(num_qubits, tuple(x(q) for q in range(num_qubits) if (index >> q) & 1))


def basis_state(index, num_qubits=3):
    v = np.zeros(2 ** num_qubits, dtype=complex)
    v[index] = 1.0
    return v


def choi_of_unitary(u):
    """The normalized Choi matrix of a unitary channel: the projector on its Choi ket."""
    ket = tomography.choi_ket_of_unitary(u)
    return np.outer(ket, ket.conj())


def random_state_vector(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim, rng, rank=None):
    g = _ginibre(dim, rng) if rank is None else (
        rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_unitary(dim, rng):
    q, r = np.linalg.qr(_ginibre(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_kraus(dim, rng, n_kraus=3):
    """Random channel via a Haar-ish isometry split into Kraus blocks."""
    big = _ginibre(dim * n_kraus, rng)
    q, r = np.linalg.qr(big)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    iso = q[:, :dim]
    return [iso[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]


def check_density_matrix(rho, *, herm_tol=1e-10, eig_tol=1e-9, trace_tol=1e-9):
    """Assert that ``rho`` is a square, Hermitian, unit-trace, positive semidefinite matrix."""
    rho = np.asarray(rho, dtype=complex)
    assert rho.ndim == 2 and rho.shape[0] == rho.shape[1], rho.shape
    assert np.max(np.abs(rho - rho.conj().T)) <= herm_tol
    assert abs(np.trace(rho) - 1.0) <= trace_tol, np.trace(rho)
    assert np.min(np.linalg.eigvalsh(rho)) >= -eig_tol, np.linalg.eigvalsh(rho)
    return rho


def unprojected(reconstruct, data, k, monkeypatch):
    """The linear-inversion estimate that ``reconstruct`` hands to the projection."""
    with monkeypatch.context() as m:
        m.setattr(tomography, "project_to_cptp", lambda choi, d_in: choi)
        return reconstruct(data, k)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
