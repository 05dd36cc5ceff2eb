import numpy as np
import pytest

from ccxlab.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
)
from ccxlab.qmath import (
    X,
    Z,
    pauli_string_matrix,
    state_fidelity,
)

from conftest import (
    random_density_matrix,
    random_state_vector,
)


def test_fidelity_identical_pure():
    psi = np.array([1.0, 0.0])
    assert state_fidelity(np.outer(psi, psi), psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure():
    a = np.diag([1.0, 0.0]).astype(complex)
    assert state_fidelity(a, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_maximally_mixed_vs_pure():
    assert state_fidelity(np.eye(2) / 2, np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        state_fidelity(np.eye(2) / 2, np.ones(4) / 2)


def test_fidelity_self_is_one_on_random_states(rng):
    for _ in range(100):
        psi = random_state_vector(8, rng)
        assert abs(state_fidelity(np.outer(psi, psi.conj()), psi) - 1.0) < 1e-9


@pytest.mark.parametrize("dim", [8, 64])
def test_fidelity_against_pure_state_is_exact(rng, dim):
    # oracle: against a pure target the fidelity is <psi|rho|psi>
    for _ in range(5):
        rho = random_density_matrix(dim, rng)
        psi = random_state_vector(dim, rng)
        expected = float(np.real(psi.conj() @ rho @ psi))
        assert abs(state_fidelity(rho, psi) - expected) < 1e-12


def test_fidelity_validates_both_arguments():
    with pytest.raises(NotPSDError):
        state_fidelity(np.eye(2) / 2, np.array([1.5, -0.5]))
    with pytest.raises(NotHermitianError):
        state_fidelity(np.array([[1, 1], [0, 0]], dtype=complex), np.array([1.0, 0.0]))


def test_pauli_string_matrix_ordering():
    # letters[0] acts on qubit 0 = least significant bit
    zx = pauli_string_matrix("XZ")  # X on qubit 0, Z on qubit 1
    assert np.allclose(zx, np.kron(Z, X))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ket_fidelity_equals_the_matrix_form(rng, k):
    for rank in (None, 1, 2):
        rho = random_density_matrix(2 ** k, rng, rank=rank)
        psi = random_state_vector(2 ** k, rng)
        assert abs(state_fidelity(rho, psi) - np.trace(rho @ np.outer(psi, psi.conj())).real) \
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
    (np.eye(8) / 8, DimensionMismatchError),
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


def test_ket_fidelity_checks_rho():
    psi = np.array([1.0, 0.0])
    for rho, error in ((np.array([[1, 1], [0, 0]], dtype=complex), NotHermitianError),
                       (np.diag([1.5, -0.5]), NotPSDError),
                       (np.array([[np.nan, 0], [0, 1]]), NotHermitianError),
                       (np.eye(3) / 3, DimensionMismatchError),
                       (np.ones(2) / 2, DimensionMismatchError)):
        with pytest.raises(error):
            state_fidelity(rho, psi)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_a_stack_scores_each_state_exactly_as_a_call_on_it_alone(rng, k, monkeypatch):
    stack = np.stack([random_density_matrix(2 ** k, rng, rank=rank) for rank in (None, 1, 2)])
    psi = random_state_vector(2 ** k, rng)
    alone = [state_fidelity(rho, psi) for rho in stack]
    assert all(isinstance(f, float) for f in alone)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    stacked = state_fidelity(stack, psi)
    assert calls == [stack.shape]
    assert stacked.shape == (3,) and stacked.tolist() == alone
    assert state_fidelity(stack[:0], psi).shape == (0,)


def test_a_stack_scores_without_numpy_2_only_functions(rng, monkeypatch):
    # pyproject declares numpy>=1.24, which has no vecdot
    stack = np.stack([random_density_matrix(8, rng) for _ in range(4)])
    psi = random_state_vector(8, rng)
    expected = state_fidelity(stack, psi)
    monkeypatch.delattr(np, "vecdot", raising=False)
    assert state_fidelity(stack, psi).tolist() == expected.tolist()


def test_a_stack_is_checked_as_a_whole():
    # one bad state anywhere in the stack fails the call, with the single state's error
    psi = np.array([1.0, 0.0])
    good = np.eye(2) / 2
    for bad, error in ((np.array([[1, 1], [0, 0]], dtype=complex), NotHermitianError),
                       (np.diag([1.5, -0.5]), NotPSDError),
                       (np.array([[np.nan, 0], [0, 1]]), NotHermitianError)):
        with pytest.raises(error):
            state_fidelity(np.stack([good, good, bad]), psi)
    for shape in ((2, 3, 3), (2, 2, 2, 2)):
        with pytest.raises(DimensionMismatchError):
            state_fidelity(np.zeros(shape), psi)
