import re

import numpy as np
import pytest

from ccxlab.qmath import VALIDATION_TOL, X, check_unitary, state_fidelity

from conftest import (
    raises_numerical,
    random_density_matrix,
    random_state_vector,
    random_unitary,
)
from product_oracle import Z, pauli_string_matrix

#: the messages of ``state_fidelity``'s checks, one per raise site
SHAPE = r"needs a \(d, d\) rho or an \(R, d, d\) stack and a \(d,\) target ket"
FINITE_KET = "requires a finite target ket"
UNIT_KET = "requires a unit target ket"
HERMITIAN = "requires a finite Hermitian input"
PSD = "requires PSD input; min eigenvalue"


def test_fidelity_identical_pure():
    psi = np.array([1.0, 0.0])
    assert state_fidelity(np.outer(psi, psi), psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure():
    a = np.diag([1.0, 0.0]).astype(complex)
    assert state_fidelity(a, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_maximally_mixed_vs_pure():
    assert state_fidelity(np.eye(2) / 2, np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with raises_numerical(SHAPE):
        state_fidelity(np.eye(2) / 2, np.ones(4) / 2)


@pytest.mark.parametrize("shape", [(2, 3), (4,)])
def test_check_unitary_rejects_a_matrix_that_is_not_square(shape):
    with raises_numerical(rf"^expected a square matrix, got shape {re.escape(str(shape))}$"):
        check_unitary(np.zeros(shape))


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
    with raises_numerical(UNIT_KET):
        state_fidelity(np.eye(2) / 2, np.array([1.5, -0.5]))
    with raises_numerical(HERMITIAN):
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


def _counted_cholesky(monkeypatch):
    # records the shape of every np.linalg.cholesky call; eigh and eigvalsh may not be called
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m.shape) or cholesky(m))
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    return calls


def test_ket_fidelity_takes_one_cholesky_and_no_eigh(rng, monkeypatch):
    rho, psi = random_density_matrix(8, rng), random_state_vector(8, rng)
    expected = state_fidelity(rho, psi)
    calls = _counted_cholesky(monkeypatch)
    assert state_fidelity(rho, psi) == expected
    assert calls == [(8, 8)]
    calls.clear()
    stack = np.stack([random_density_matrix(8, rng, rank=rank) for rank in (None, 1, 2)])
    state_fidelity(stack, psi)
    assert calls == [(3, 8, 8)]


def _state_with_least_eigenvalue(least, dim, rng):
    # a Hermitian unit-trace matrix whose least eigenvalue is ``least``
    spectrum = np.concatenate([[least], rng.uniform(0.5, 1.0, dim - 1)])
    spectrum[1:] *= (1 - least) / spectrum[1:].sum()
    u = random_unitary(dim, rng)
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2


@pytest.mark.parametrize("factorization", ["cholesky", "fails"])
def test_psd_check_rejects_exactly_below_minus_the_tolerance(rng, factorization, monkeypatch):
    # with "fails" every factorization raises, so eigvalsh alone decides, as it did alone
    # before the Cholesky check: the two paths must agree on every state below
    if factorization == "fails":
        def no_cholesky(m):
            raise np.linalg.LinAlgError("forced")
        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    psi = random_state_vector(8, rng)
    bad = _state_with_least_eigenvalue(-2 * VALIDATION_TOL, 8, rng)
    with raises_numerical(f"{PSD} {-2 * VALIDATION_TOL:.3e}"):
        state_fidelity(bad, psi)
    good = [_state_with_least_eigenvalue(-0.5 * VALIDATION_TOL, 8, rng),
            random_density_matrix(8, rng, rank=1), random_density_matrix(8, rng, rank=2)]
    for rho in good:
        assert state_fidelity(rho, psi) == pytest.approx(np.vdot(psi, rho @ psi).real, abs=1e-12)
    assert state_fidelity(np.stack(good), psi).shape == (3,)
    for position in range(3):
        stack = good[:position] + [bad] + good[position:]
        with raises_numerical(f"{PSD} {-2 * VALIDATION_TOL:.3e}"):
            state_fidelity(np.stack(stack), psi)


@pytest.mark.parametrize("ket, error", [
    (np.ones(4) / 2, SHAPE),
    (np.ones(16) / 4, SHAPE),
    (np.eye(8) / 8, SHAPE),
    (np.array([1, 0, 0, 0, 0, 0, 0, np.nan]), FINITE_KET),
    (np.array([1, 0, 0, 0, 0, 0, 0, np.inf]), FINITE_KET),
    (np.array([1, 0, 0, 0, 0, 0, 1j * np.inf, 0]), FINITE_KET),
    (np.ones(8), UNIT_KET),
    (np.zeros(8), UNIT_KET),
    (np.full(8, 1 / 8 ** 0.5) * (1 + 1e-5), UNIT_KET)])
def test_ket_fidelity_rejects_a_malformed_ket(ket, error):
    with raises_numerical(error):
        state_fidelity(np.eye(8) / 8, ket)


def test_ket_fidelity_checks_rho():
    psi = np.array([1.0, 0.0])
    for rho, error in ((np.array([[1, 1], [0, 0]], dtype=complex), HERMITIAN),
                       (np.diag([1.5, -0.5]), PSD),
                       (np.array([[np.nan, 0], [0, 1]]), HERMITIAN),
                       (np.eye(3) / 3, SHAPE),
                       (np.ones(2) / 2, SHAPE)):
        with raises_numerical(error):
            state_fidelity(rho, psi)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_a_stack_scores_each_state_exactly_as_a_call_on_it_alone(rng, k, monkeypatch):
    stack = np.stack([random_density_matrix(2 ** k, rng, rank=rank) for rank in (None, 1, 2)])
    psi = random_state_vector(2 ** k, rng)
    alone = [state_fidelity(rho, psi) for rho in stack]
    assert all(isinstance(f, float) for f in alone)
    calls = _counted_cholesky(monkeypatch)
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
    for bad, error in ((np.array([[1, 1], [0, 0]], dtype=complex), HERMITIAN),
                       (np.diag([1.5, -0.5]), PSD),
                       (np.array([[np.nan, 0], [0, 1]]), HERMITIAN)):
        with raises_numerical(error):
            state_fidelity(np.stack([good, good, bad]), psi)
    for shape in ((2, 3, 3), (2, 2, 2, 2)):
        with raises_numerical(SHAPE):
            state_fidelity(np.zeros(shape), psi)
