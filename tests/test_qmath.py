import numpy as np
import pytest

from ccxlab.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
)
from ccxlab.qmath import (
    I2,
    X,
    Z,
    matrix_sqrt_psd,
    pauli_string_matrix,
    state_fidelity,
)

from conftest import (
    random_density_matrix,
    random_state_vector,
    random_unitary,
)


def test_sqrt_identity():
    assert np.allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4))


def test_sqrt_diagonal():
    assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_bloch_state_squares_back():
    rho = 0.5 * (I2 + 0.6 * X)
    s = matrix_sqrt_psd(rho)
    assert np.max(np.abs(s @ s - rho)) < 1e-10
    # independent eigendecomposition oracle
    w, v = np.linalg.eigh(rho)
    oracle = (v * np.sqrt(w)) @ v.conj().T
    assert np.max(np.abs(s - oracle)) < 1e-12


def test_sqrt_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        matrix_sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        matrix_sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_squares_back_on_random_psd(rng):
    for _ in range(20):
        rho = random_density_matrix(8, rng)
        s = matrix_sqrt_psd(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-8


def test_fidelity_identical_pure():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_maximally_mixed_vs_pure():
    assert state_fidelity(np.eye(2) / 2, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        state_fidelity(np.eye(2) / 2, np.eye(4) / 4)


def test_fidelity_self_is_one_on_random_states(rng):
    for _ in range(100):
        rho = random_density_matrix(8, rng)
        assert abs(state_fidelity(rho, rho) - 1.0) < 1e-9


def test_fidelity_symmetry_and_unitary_invariance(rng):
    for _ in range(10):
        rho = random_density_matrix(8, rng)
        sig = random_density_matrix(8, rng, rank=2)
        f = state_fidelity(rho, sig)
        assert abs(f - state_fidelity(sig, rho)) < 1e-8
        u = random_unitary(8, rng)
        f_rot = state_fidelity(u @ rho @ u.conj().T, u @ sig @ u.conj().T)
        assert abs(f - f_rot) < 1e-8


@pytest.mark.parametrize("dim", [8, 64])
def test_fidelity_against_pure_state_is_exact(rng, dim):
    # oracle: for a pure argument the Uhlmann fidelity is <psi|rho|psi>
    for _ in range(5):
        rho = random_density_matrix(dim, rng)
        psi = random_state_vector(dim, rng)
        pure = np.outer(psi, psi.conj())
        expected = float(np.real(psi.conj() @ rho @ psi))
        assert abs(state_fidelity(rho, pure) - expected) < 1e-12
        assert abs(state_fidelity(pure, rho) - expected) < 1e-12


def test_fidelity_validates_both_arguments():
    with pytest.raises(NotPSDError):
        state_fidelity(np.eye(2) / 2, np.diag([1.5, -0.5]))
    with pytest.raises(NotHermitianError):
        state_fidelity(np.array([[1, 1], [0, 0]], dtype=complex), np.eye(2) / 2)


def test_pauli_string_matrix_ordering():
    # letters[0] acts on qubit 0 = least significant bit
    zx = pauli_string_matrix("XZ")  # X on qubit 0, Z on qubit 1
    assert np.allclose(zx, np.kron(Z, X))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ket_fidelity_equals_the_matrix_form(rng, k):
    for rank in (None, 1, 2):
        rho = random_density_matrix(2 ** k, rng, rank=rank)
        psi = random_state_vector(2 ** k, rng)
        assert abs(state_fidelity(rho, psi) - state_fidelity(rho, np.outer(psi, psi.conj()))) \
            < 1e-12


def test_ket_fidelity_takes_one_eigvalsh_and_no_eigh(rng, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    state_fidelity(random_density_matrix(8, rng), random_state_vector(8, rng))
    assert calls == [(8, 8)]


@pytest.mark.parametrize("ket, error", [
    (np.ones(4) / 2, DimensionMismatchError),
    (np.ones(16) / 4, DimensionMismatchError),
    (np.array([1, 0, 0, 0, 0, 0, 0, np.nan]), NotHermitianError),
    (np.array([1, 0, 0, 0, 0, 0, 0, np.inf]), NotHermitianError),
    (np.array([1, 0, 0, 0, 0, 0, 1j * np.inf, 0]), NotHermitianError),
    (np.ones(8), NotPSDError),
    (np.zeros(8), NotPSDError),
    (np.full(8, 1 / 8 ** 0.5) * (1 + 1e-5), NotPSDError)])
def test_ket_fidelity_rejects_a_malformed_ket(ket, error):
    with pytest.raises(error) as info:
        state_fidelity(np.eye(8) / 8, ket)
    assert info.value.exit_code == 4


def test_ket_fidelity_checks_rho_like_the_matrix_form():
    psi = np.array([1.0, 0.0])
    for rho, error in ((np.array([[1, 1], [0, 0]], dtype=complex), NotHermitianError),
                       (np.diag([1.5, -0.5]), NotPSDError),
                       (np.array([[np.nan, 0], [0, 1]]), NotHermitianError),
                       (np.eye(3) / 3, DimensionMismatchError),
                       (np.ones(2) / 2, DimensionMismatchError)):
        with pytest.raises(error):
            state_fidelity(rho, psi)
        if rho.shape == (2, 2):
            with pytest.raises(error):
                state_fidelity(rho, np.outer(psi, psi))
