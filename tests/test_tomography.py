import functools
import itertools
import math
import re

import numpy as np
import pytest

from ccxlab.calibration import builtin_calibration_path, ingest_calibration
from ccxlab.circuits import circuit_unitary
from ccxlab import experiments, simulator, tomography
from ccxlab.noise import NOISELESS
from ccxlab.errors import (
    DimensionMismatchError,
    InvalidPauliStringError,
    KOutOfRangeError,
    NotHermitianError,
    NotUnitaryError,
    ProjectionNotConvergedError,
)
from ccxlab.qmath import kron_le, pauli_string_matrix, state_fidelity
from ccxlab.simulator import sample_distribution
from ccxlab.states import (
    PROBE_LABELS,
    StateKind,
    ghz_circuit,
    probe_circuit,
    probe_state,
    target_state,
)
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli, toffoli_unitary
from ccxlab.tomography import (
    average_gate_fidelity,
    choi_ket_of_unitary,
    measurement_rotation,
    project_to_cptp,
    qpt_reconstruct,
    qst_reconstruct,
    qst_settings,
    tp_deviation,
)

from channel_oracle import (
    choi_apply,
    choi_to_superop_pauli,
    kraus_to_choi,
    process_fidelity_superop,
    unitary_to_superop_pauli,
)
from conftest import (
    check_density_matrix,
    choi_of_unitary,
    random_cptp_kraus,
    random_density_matrix,
    random_state_vector,
    random_unitary,
    unprojected,
)
from measurement_oracle import measurement_probabilities


def _exact_qst_data(state, k):
    return np.array([measurement_probabilities(state, s) for s in qst_settings(k)])


def _exact_qpt_data(u, k):
    return np.array([_exact_qst_data(u @ probe_state(probe), k)
                     for probe in itertools.product(PROBE_LABELS, repeat=k)])


def _sampled_qst_data(state, k, shots):
    # the whole table is one draw, as in an experiment repeat
    return sample_distribution(_exact_qst_data(state, k), shots, (0,)) / shots


def _sampled_qpt_data(u, k, shots, master_seed):
    return sample_distribution(_exact_qpt_data(u, k), shots, (master_seed,)) / shots


def _sampled_toffoli_qpt_data(shots):
    return _sampled_qpt_data(toffoli_unitary((0, 1), 2), 3, shots, master_seed=0)


def _dykstra_cptp(choi, d_in, tol=1e-14, max_iter=20000):
    """Oracle: Dykstra alternating projections onto the PSD cone and the TP
    subspace Tr_out X = I, for a normalized Choi matrix of input dimension
    ``d_in`` (a state at d_in = 1), run until an iteration moves no entry by
    more than ``tol``."""
    d_out = choi.shape[0] // d_in
    x = choi * d_in
    correction = np.zeros_like(x)
    eye = np.eye(d_in)
    for _ in range(max_iter):
        z = x + correction
        z = (z + z.conj().T) / 2
        w, v = np.linalg.eigh(z)
        y = (v * np.clip(w, 0.0, None)) @ v.conj().T
        correction = z - y
        partial = np.einsum("mpnp->mn", y.reshape(d_in, d_out, d_in, d_out))
        x_new = y - np.kron(partial - eye, np.eye(d_out)) / d_out
        if np.max(np.abs(x_new - x)) < tol:
            return x_new / d_in
        x = x_new
    raise RuntimeError("Dykstra oracle did not converge")


def _pauli_expectations_oracle(data, k):
    """Reference estimator: every <P> over {I,X,Y,Z}^k, one Pauli string at a
    time, averaging the parity of P's support over the settings covering P."""
    freqs = dict(zip(qst_settings(k), data))
    expectations = {}
    for letters in itertools.product("IXYZ", repeat=k):
        pstr = "".join(letters)
        support = [q for q in range(k) if pstr[q] != "I"]
        if not support:
            expectations[pstr] = 1.0
            continue
        idx = np.arange(2 ** k)
        par = np.zeros(2 ** k, dtype=int)
        for q in support:
            par ^= (idx >> q) & 1
        signs = 1 - 2 * par
        covers = [s for s in freqs if all(s[q] == pstr[q] for q in support)]
        expectations[pstr] = float(np.mean([signs @ freqs[s] for s in covers]))
    return expectations


def _linear_inversion_oracle(data, k):
    rho = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for pstr, e in _pauli_expectations_oracle(data, k).items():
        rho += e * pauli_string_matrix(pstr)
    return rho / 2 ** k


def _qpt_oracle(data, k):
    """Reference QPT: per-probe linear inversion, probe-basis solve and a
    block-by-block Choi assembly; returns (raw TP deviation, projected Choi)."""
    dim = 2 ** k
    probes = list(itertools.product(PROBE_LABELS, repeat=k))
    basis = np.zeros((dim * dim, len(probes)), dtype=complex)
    images = np.zeros((dim * dim, len(probes)), dtype=complex)
    for idx, probe in enumerate(probes):
        ket = probe_state(probe)
        basis[:, idx] = np.outer(ket, ket.conj()).reshape(-1)
        images[:, idx] = _linear_inversion_oracle(data[idx], k).reshape(-1)
    superop = images @ np.linalg.inv(basis)
    xi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[m, n] = 1.0
            xi[m * dim:(m + 1) * dim, n * dim:(n + 1) * dim] = \
                (superop @ unit.reshape(-1)).reshape(dim, dim)
    return tp_deviation(xi / dim, dim), project_to_cptp(xi / dim, dim)


# -- settings and rotations -------------------------------------------------------

def test_settings_one_qubit():
    assert qst_settings(1) == ["X", "Y", "Z"]


def test_settings_three_qubits():
    settings = qst_settings(3)
    assert len(settings) == 27
    assert settings[0] == "XXX"
    assert settings[-1] == "ZZZ"
    assert len(set(settings)) == 27
    assert settings == sorted(settings)


def test_settings_k_out_of_range():
    with pytest.raises(KOutOfRangeError):
        qst_settings(0)
    with pytest.raises(KOutOfRangeError):
        qst_settings(5)


@pytest.mark.parametrize("setting", ["XQ", "xyz", "XIZ", ""])
def test_a_setting_that_is_not_over_xyz_is_a_usage_error(setting):
    with pytest.raises(InvalidPauliStringError) as info:
        measurement_rotation(setting)
    assert info.value.exit_code == 2


def test_z_rotation_is_empty():
    assert measurement_rotation("ZZZ").gates == ()


def test_x_rotation_maps_plus_to_zero():
    circ = measurement_rotation("X")
    u = circuit_unitary(circ)
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    assert abs((u @ plus)[0]) == pytest.approx(1.0, abs=1e-10)


def test_y_rotation_maps_plus_i_to_zero():
    circ = measurement_rotation("Y")
    u = circuit_unitary(circ)
    plus_i = np.array([1, 1j], dtype=complex) / math.sqrt(2)
    assert abs((u @ plus_i)[0]) == pytest.approx(1.0, abs=1e-10)


def test_rotation_circuits_agree_with_exact_probabilities(rng):
    psi = random_state_vector(8, rng)
    for setting in ("XYZ", "YYX", "ZXY"):
        circ = measurement_rotation(setting)
        rotated = circuit_unitary(circ) @ psi
        probs_circ = np.abs(rotated) ** 2
        probs_exact = measurement_probabilities(psi, setting)
        assert np.max(np.abs(probs_circ - probs_exact)) < 1e-10


# -- state tomography --------------------------------------------------------------

def test_qst_ground_state_exact():
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    rho = qst_reconstruct(_exact_qst_data(psi, 3), 3)
    assert state_fidelity(rho, psi) > 1 - 1e-9


def test_qst_toffoli_ghz_output_exact():
    circ = ghz_circuit().concat(decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2))
    psi = circuit_unitary(circ)[:, 0]
    rho = qst_reconstruct(_exact_qst_data(psi, 3), 3)
    assert state_fidelity(rho, psi) > 1 - 1e-9


def test_qst_random_pure_states_exact(rng):
    for _ in range(10):
        psi = random_state_vector(8, rng)
        rho = qst_reconstruct(_exact_qst_data(psi, 3), 3)
        assert state_fidelity(rho, psi) > 1 - 1e-9


def test_qst_sampled_output_is_physical(rng):
    psi = circuit_unitary(ghz_circuit())[:, 0]
    rho = qst_reconstruct(_sampled_qst_data(psi, 3, 500), 3)
    check_density_matrix(rho)


def test_qst_missing_setting_is_a_shape_error():
    psi = np.zeros(2, dtype=complex)
    psi[0] = 1.0
    data = _exact_qst_data(psi, 1)[:2]
    with pytest.raises(DimensionMismatchError, match=r"shape \(3, 2\), got \(2, 2\)"):
        qst_reconstruct(data, 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_qst_reconstruct_matches_per_pauli_oracle(rng, k):
    rho = random_density_matrix(2 ** k, rng)
    data = _sampled_qst_data(rho, k, 200)
    expected = _dykstra_cptp(_linear_inversion_oracle(data, k), 1)
    assert np.max(np.abs(qst_reconstruct(data, k) - expected)) < 1e-12


def test_state_projection_is_idempotent_on_valid_states(rng):
    rho = random_density_matrix(8, rng)
    assert np.max(np.abs(project_to_cptp(rho, 1) - rho)) < 1e-12


def test_state_projection_clips_to_the_nearest_state():
    out = project_to_cptp(np.diag([1.1, -0.1]), 1)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_state_projection_without_a_positive_eigenvalue_keeps_the_largest():
    # water-filling lifts the largest eigenvalue -1 to 1; clip-and-renormalize had nothing left
    out = project_to_cptp(np.diag([-1.0, -2.0]), 1)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_state_projection_output_is_always_a_density_matrix(rng):
    for _ in range(50):
        noise = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = noise + noise.conj().T
        check_density_matrix(project_to_cptp(herm + 4 * np.eye(8), 1))


def test_state_projection_takes_one_eigh_and_no_newton_step(monkeypatch):
    # at d_in = 1 the multiplier is a scalar, so the water-filling level is exact at once
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    monkeypatch.setattr(tomography, "_conjugate_gradient", None)
    psi = toffoli_unitary((0, 1), 2) @ target_state(StateKind.W)
    rho = qst_reconstruct(_sampled_qst_data(psi, 3, 19000), 3)
    assert calls == [(8, 8)]
    check_density_matrix(rho)


def _sampled_qst_stack(states, k, shots):
    """One sampled table per state, stacked: repeat r draws from generator (r,)."""
    return np.stack([sample_distribution(_exact_qst_data(psi, k), shots, (r,)) / shots
                     for r, psi in enumerate(states)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_stacked_qst_reconstruct_equals_its_single_calls(rng, k):
    # each repeat keeps its own products and eigh, so no entry depends on the stack
    stack = _sampled_qst_stack([random_state_vector(2 ** k, rng) for _ in range(5)], k, 300)
    rhos = qst_reconstruct(stack, k)
    assert rhos.shape == (5, 2 ** k, 2 ** k)
    for r in range(5):
        assert np.array_equal(rhos[r], qst_reconstruct(stack[r], k))
        check_density_matrix(rhos[r])
    assert np.array_equal(qst_reconstruct(stack[1:3], k), rhos[1:3])


def test_a_stacked_qst_reconstruct_takes_one_batched_eigh(rng, monkeypatch):
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    qst_reconstruct(_sampled_qst_stack([random_state_vector(8, rng)] * 4, 3, 1000), 3)
    assert calls == [(4, 8, 8)]


@pytest.mark.parametrize("repeat", [0, 2, 3])
def test_a_nan_in_any_repeat_of_a_stack_is_rejected_before_eigh(repeat, monkeypatch):
    def no_eigh(*args):
        raise AssertionError("eigh called on a non-finite state estimate")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    stack = np.full((4, 27, 8), 1 / 8)
    stack[repeat, 11, 5] = np.nan
    with pytest.raises(NotHermitianError, match="finite"):
        qst_reconstruct(stack, 3)


@pytest.mark.parametrize("shape", [(4, 27, 7), (4, 26, 8), (4, 8, 27), (2, 1, 27, 8), (216,)])
def test_a_qst_table_of_the_wrong_shape_is_a_dimension_error(shape):
    with pytest.raises(DimensionMismatchError, match=r"must have shape .*, got "
                       + re.escape(str(shape))):
        qst_reconstruct(np.full(shape, 1 / 8), 3)


# -- process tomography -------------------------------------------------------------

def test_choi_of_identity_single_qubit():
    sigma = choi_of_unitary(np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    for m, n in itertools.product(range(2), repeat=2):
        expected[m * 2 + m, n * 2 + n] = 0.5
    assert np.max(np.abs(sigma - expected)) < 1e-12


def test_choi_unitary_normalization(rng):
    for dim in (2, 4, 8):
        u = random_unitary(dim, rng)
        sigma = choi_of_unitary(u)
        assert np.trace(sigma) == pytest.approx(1.0)
        assert np.real(np.trace(sigma @ sigma)) == pytest.approx(1.0, abs=1e-10)


def test_the_choi_ket_is_the_unit_ket_of_the_choi_matrix(rng):
    # oracle: (I (x) U) applied to sum_i |ii>, input index major, then normalized
    for u in [random_unitary(dim, rng) for dim in (2, 4, 8)] + [toffoli_unitary((0, 1), 2)]:
        dim = len(u)
        ket = choi_ket_of_unitary(u)
        oracle = np.kron(np.eye(dim), u) @ np.eye(dim).reshape(-1) / math.sqrt(dim)
        assert np.max(np.abs(ket - oracle)) < 1e-15
        assert np.max(np.abs(np.outer(ket, ket.conj()) - kraus_to_choi([u]))) < 1e-15


def test_choi_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        choi_ket_of_unitary(np.diag([1.0, 0.5]))


def test_choi_apply_matches_unitary_action(rng):
    u = random_unitary(4, rng)
    sigma = choi_of_unitary(u)
    rho = np.outer(*(lambda v: (v, v.conj()))(random_state_vector(4, rng)))
    assert np.max(np.abs(choi_apply(sigma, rho) - u @ rho @ u.conj().T)) < 1e-10


def test_qpt_identity_channel_exact_k1():
    data = _exact_qpt_data(np.eye(2), 1)
    sigma = qpt_reconstruct(data, 1)
    assert np.max(np.abs(sigma - choi_of_unitary(np.eye(2)))) < 1e-8


def test_qpt_random_unitaries_exact(rng):
    for k in (1, 2):
        u = random_unitary(2 ** k, rng)
        sigma = qpt_reconstruct(_exact_qpt_data(u, k), k)
        assert state_fidelity(sigma, choi_ket_of_unitary(u)) > 1 - 1e-8


def test_qpt_toffoli_exact():
    u = toffoli_unitary((0, 1), 2)
    sigma = qpt_reconstruct(_exact_qpt_data(u, 3), 3)
    assert state_fidelity(sigma, choi_ket_of_unitary(u)) > 1 - 1e-8


def test_qpt_raw_estimate_is_trace_preserving(rng, monkeypatch):
    # per-probe linear inversion fixes <I> = 1, so the unprojected Choi is TP
    u = random_unitary(2, rng)
    data = _sampled_qpt_data(u, 1, 300, master_seed=1)
    assert tp_deviation(unprojected(qpt_reconstruct, data, 1, monkeypatch), 2) < 1e-10
    check_density_matrix(qpt_reconstruct(data, 1), eig_tol=1e-6, trace_tol=1e-8)


def test_qpt_sampled_output_is_physical():
    sigma = qpt_reconstruct(_sampled_toffoli_qpt_data(50), 3)
    check_density_matrix(sigma, eig_tol=1e-6, trace_tol=1e-8)
    assert tp_deviation(sigma, 8) < 1e-6


@pytest.mark.parametrize("k", [1, 2])
def test_qpt_reconstruct_matches_per_pauli_oracle(rng, k, monkeypatch):
    data = _sampled_qpt_data(random_unitary(2 ** k, rng), k, 300, master_seed=k)
    deviation, choi = _qpt_oracle(data, k)
    assert np.max(np.abs(qpt_reconstruct(data, k) - choi)) < 1e-12
    raw = unprojected(qpt_reconstruct, data, k, monkeypatch)
    assert abs(tp_deviation(raw, 2 ** k) - deviation) < 1e-12


def test_qpt_reconstruct_matches_per_pauli_oracle_on_sampled_toffoli(monkeypatch):
    data = _sampled_toffoli_qpt_data(1000)
    deviation, choi = _qpt_oracle(data, 3)
    assert np.max(np.abs(qpt_reconstruct(data, 3) - choi)) < 1e-12
    raw = unprojected(qpt_reconstruct, data, 3, monkeypatch)
    assert abs(tp_deviation(raw, 8) - deviation) < 1e-12


def test_qpt_missing_cell_is_a_shape_error():
    data = _exact_qpt_data(np.eye(2), 1)
    with pytest.raises(DimensionMismatchError, match=r"shape \(4, 3, 2\), got \(3, 3, 2\)"):
        qpt_reconstruct(data[:3], 1)
    with pytest.raises(DimensionMismatchError, match=r"got \(4, 2, 2\)"):
        qpt_reconstruct(data[:, :2], 1)


def test_qpt_product_channel_matches_tensor_product(rng):
    # Choi of U1 (x) U2 equals the index-reordered kron of single-qubit Chois
    u1 = random_unitary(2, rng)
    u2 = random_unitary(2, rng)
    joint = kron_le([u1, u2])
    sigma_joint = choi_of_unitary(joint)
    s1 = choi_of_unitary(u1)
    s2 = choi_of_unitary(u2)
    combined = np.kron(s2, s1)  # indices ((m2,p2),(m1,p1))
    perm = np.zeros(16, dtype=int)
    for m2, p2, m1, p1 in itertools.product(range(2), repeat=4):
        src = ((m2 * 2 + p2) * 4) + (m1 * 2 + p1)
        dst = ((m1 + 2 * m2) * 4) + (p1 + 2 * p2)
        perm[dst] = src
    reordered = combined[np.ix_(perm, perm)]
    assert np.max(np.abs(sigma_joint - reordered)) < 1e-8


def test_project_to_cptp_fixes_noise(rng):
    sigma = choi_of_unitary(random_unitary(2, rng))
    noise = rng.normal(scale=0.01, size=(4, 4)) + 1j * rng.normal(scale=0.01, size=(4, 4))
    noisy = sigma + (noise + noise.conj().T) / 2
    fixed = project_to_cptp(noisy, 2)
    check_density_matrix(fixed, eig_tol=1e-6, trace_tol=1e-8)
    assert tp_deviation(fixed, 2) < 1e-6


@pytest.mark.parametrize("k, d_in", [(1, 2), (2, 4), (1, 1), (2, 1), (3, 1)])
def test_project_to_cptp_matches_dykstra_oracle(rng, k, d_in):
    # d_in = 2^k: noisy Choi matrices of k-qubit channels; d_in = 1: Hermitian
    # trace-one matrices of dimension 2^k near a full-rank and a pure state
    dim = 2 ** k
    bases = ((choi_of_unitary(random_unitary(dim, rng)),
              kraus_to_choi(random_cptp_kraus(dim, rng))) if d_in > 1 else
             (random_density_matrix(dim, rng), random_density_matrix(dim, rng, rank=1)))
    for scale in (0.01, 0.1):
        for base in bases:
            noise = rng.normal(scale=scale, size=base.shape) \
                + 1j * rng.normal(scale=scale, size=base.shape)
            noisy = base + (noise + noise.conj().T) / 2
            if d_in == 1:
                noisy += (1 - np.trace(noisy)) * np.eye(dim) / dim
            oracle = _dykstra_cptp(noisy, d_in)
            assert np.max(np.abs(project_to_cptp(noisy, d_in) - oracle)) < 1e-9


@pytest.mark.parametrize("estimate", ["choi", "GHZ", "W", "UNIFORM"])
def test_project_to_cptp_matches_dykstra_oracle_on_sampled_toffoli(estimate, monkeypatch):
    # the 50-shot QPT estimate, or a 19000-shot QST estimate of the Toffoli's output state
    if estimate == "choi":
        d_in = 8
        raw = unprojected(qpt_reconstruct, _sampled_toffoli_qpt_data(50), 3, monkeypatch)
    else:
        psi = toffoli_unitary((0, 1), 2) @ target_state(StateKind(estimate))
        d_in = 1
        raw = unprojected(qst_reconstruct, _sampled_qst_data(psi, 3, 19000), 3, monkeypatch)
    oracle = _dykstra_cptp(raw, d_in)
    assert tp_deviation(oracle, d_in) < 1e-12
    assert np.max(np.abs(project_to_cptp(raw, d_in) - oracle)) < 1e-9


@pytest.mark.parametrize("shots", [50, 1000, 11000])
def test_projected_toffoli_choi_is_cptp(shots):
    sigma = qpt_reconstruct(_sampled_toffoli_qpt_data(shots), 3)
    assert tp_deviation(sigma, 8) < 1e-9
    assert np.min(np.linalg.eigvalsh(sigma)) > -1e-12
    assert abs(np.trace(sigma) - 1.0) < 1e-10


def test_project_to_cptp_raises_at_step_cap(rng, monkeypatch):
    monkeypatch.setattr(tomography, "CPTP_MAX_NEWTON_STEPS", 1)
    sigma = choi_of_unitary(random_unitary(4, rng))
    noise = rng.normal(scale=0.1, size=sigma.shape) + 1j * rng.normal(scale=0.1, size=sigma.shape)
    with pytest.raises(ProjectionNotConvergedError, match=r"TP residual \d") as info:
        project_to_cptp(sigma + (noise + noise.conj().T) / 2, 4)
    assert info.value.exit_code == 4



def _dense_tp_jacobian(h, v, w):
    """Oracle: Tr_out V (Omega o V^H (h (x) I) V) V^H with the full n x n matrix
    Omega of divided differences of max(w, 0)."""
    d_in = h.shape[0]
    d_out = len(w) // d_in
    pos = w > 0
    mixed = pos[:, None] != pos[None, :]
    diff = np.where(mixed, w[:, None] - w[None, :], 1.0)
    wp = np.where(pos, w, 0.0)
    omega = np.where(mixed, (wp[:, None] - wp[None, :]) / diff, pos[:, None] & pos[None, :])
    rotated = v.conj().T @ np.kron(h, np.eye(d_out)) @ v
    return np.einsum("mpnp->mn",
                     (v @ (omega * rotated) @ v.conj().T).reshape(d_in, d_out, d_in, d_out))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rank", ["0", "1", "n/2", "n"])
@pytest.mark.parametrize("d_in", ["2^k", "1"])
def test_rank_aware_jacobian_matches_dense_product(rng, k, rank, d_in):
    # d_in x d_in multipliers on n x n Choi matrices, n = 4^k: a channel, or a state at d_in = 1
    n = 4 ** k
    d = 2 ** k if d_in == "2^k" else 1
    r = {"0": 0, "1": 1, "n/2": n // 2, "n": n}[rank]
    # ascending, as eigh returns it: n - r non-positive values (one exactly 0), then r positive
    w = np.concatenate([np.sort(-rng.uniform(0.0, 1.0, n - r)), np.sort(rng.uniform(0.1, 1.0, r))])
    if r < n:
        w[n - r - 1] = 0.0
    v = random_unitary(n, rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2
    fast = tomography._tp_jacobian(v, tomography._jacobian_weights(w))(h)
    if r == 0:
        assert np.array_equal(fast, np.zeros((d, d)))
    assert np.max(np.abs(fast - _dense_tp_jacobian(h, v, w))) < 1e-13


@functools.lru_cache(maxsize=None)
def _toffoli_qpt_table(calibration):
    """Exact (64, 27, 8) QPT table of the ECR_NATIVE Toffoli, noise-free or under a calibration."""
    nm = NOISELESS if calibration is None else \
        ingest_calibration(builtin_calibration_path(calibration)).noise_model(3)
    toffoli = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
    probes = simulator.product_states([probe_circuit((label,)) for label in PROBE_LABELS], 3, nm)
    return experiments._distributions(probes, toffoli, nm)


@pytest.mark.parametrize("calibration", [None, "brisbane_median"])
@pytest.mark.parametrize("shots", [50, 1000, 11000])
def test_projection_conjugate_gradients_stay_under_their_cap(calibration, shots, monkeypatch):
    # a CG tolerance below the Jacobian product's round-off runs every last
    # Newton step to the 2 d^2 cap; the forcing floor keeps it well short
    solve = tomography._conjugate_gradient
    iterations = []

    def counted(apply, b, tol, max_iter):
        iterations.append(0)

        def product(h):
            iterations[-1] += 1
            return apply(h)
        return solve(product, b, tol, max_iter)

    monkeypatch.setattr(tomography, "_conjugate_gradient", counted)
    table = _toffoli_qpt_table(calibration)
    for seed in range(4):
        iterations.clear()
        sigma = qpt_reconstruct(sample_distribution(table, shots, (seed,)) / shots, 3)
        assert tp_deviation(sigma, 8) <= tomography.CPTP_TP_TOL
        assert 0 < len(iterations) <= 8
        assert max(iterations) < 2 * 8 * 8


@pytest.mark.parametrize("calibration, most", [(None, 6), ("brisbane_median", 5)])
def test_projection_eigendecompositions_on_the_seed_7_tables(calibration, most, monkeypatch):
    # every Newton iterate moves to the water-filling level, the dual's exact minimum along
    # Lam + mu I, at no cost: a start from the TP-trace multiplier alone took 8 eigh calls
    # per projection noise-free and 6 noise-aware on these tables, the two repeats of the
    # seed-7 QPT goldens in tests/test_experiments.py
    dual = tomography._dual
    calls = []
    monkeypatch.setattr(tomography, "_dual", lambda *args: calls.append(1) or dual(*args))
    table = _toffoli_qpt_table(calibration)
    for repeat in range(2):
        calls.clear()
        sigma = qpt_reconstruct(sample_distribution(table, 11000, (7, repeat)) / 11000, 3)
        assert tp_deviation(sigma, 8) <= tomography.CPTP_TP_TOL
        assert len(calls) <= most


@pytest.mark.parametrize("bad, d_in", [
    (np.eye(63), 8), (np.eye(8), 3), (np.eye(16), 0), (np.zeros((0, 0)), 1),
    (np.ones((4, 16)), 4), (np.ones(16), 4), (np.ones((2, 2, 2)), 1)])
@pytest.mark.parametrize("function", [project_to_cptp, tp_deviation])
def test_choi_of_wrong_shape_is_a_dimension_error(function, bad, d_in):
    with pytest.raises(DimensionMismatchError, match=r"\(d_in \* d_out\) x \(d_in \* d_out\)"):
        function(bad, d_in)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("d_in", [1, 4])
@pytest.mark.parametrize("function", [project_to_cptp, tp_deviation])
def test_choi_with_non_finite_entries_is_rejected_before_eigh(function, d_in, value,
                                                              monkeypatch):
    def no_eigh(*args):
        raise AssertionError("eigh called on a non-finite Choi matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    choi = np.eye(16, dtype=complex) / 16
    choi[3, 5] = value
    with pytest.raises(NotHermitianError, match="finite") as info:
        function(choi, d_in)
    assert info.value.exit_code == 4


def test_qst_estimate_with_a_nan_is_rejected_before_eigh(monkeypatch):
    def no_eigh(*args):
        raise AssertionError("eigh called on a non-finite state estimate")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    data = np.full((27, 8), 1 / 8)
    data[4, 2] = np.nan
    with pytest.raises(NotHermitianError, match="finite"):
        qst_reconstruct(data, 3)

# -- fidelity metrics ----------------------------------------------------------------

def test_process_fidelity_self(rng):
    ket = choi_ket_of_unitary(random_unitary(8, rng))
    assert state_fidelity(np.outer(ket, ket.conj()), ket) == pytest.approx(1.0, abs=1e-9)


def test_process_fidelity_fully_depolarizing_vs_identity():
    sigma_mixed = np.eye(4, dtype=complex) / 4
    assert state_fidelity(sigma_mixed, choi_ket_of_unitary(np.eye(2))) == pytest.approx(
        0.25, abs=1e-9)


def test_process_fidelity_pure_target_shortcut(rng):
    # against a unitary target the fidelity reduces to <omega| sigma |omega>
    u = random_unitary(4, rng)
    ops = random_cptp_kraus(4, rng)
    sigma = kraus_to_choi(ops)
    target = kraus_to_choi([u])
    w, v = np.linalg.eigh(target)
    ket = v[:, -1]
    shortcut = float(np.real(ket.conj() @ sigma @ ket))
    assert state_fidelity(sigma, choi_ket_of_unitary(u)) == pytest.approx(shortcut, abs=1e-8)


def test_average_gate_fidelity_formula():
    assert average_gate_fidelity(1.0, 3) == 1.0
    assert average_gate_fidelity(0.0, 1) == pytest.approx(1 / 3)
    assert average_gate_fidelity(0.802, 3) == pytest.approx(0.8240, abs=1e-4)


def test_average_gate_fidelity_affine_monotone():
    k = 2
    values = [average_gate_fidelity(f, k) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    diffs = np.diff(values)
    assert np.allclose(diffs, diffs[0])
    assert all(d > 0 for d in diffs)


def test_superop_identity_vs_x_orthogonal():
    # direct transfer-matrix computation: X flips the sign of Y and Z rows
    s_chan = choi_to_superop_pauli(choi_of_unitary(np.eye(2)))
    f = process_fidelity_superop(s_chan, np.array([[0, 1], [1, 0]], dtype=complex))
    assert f == pytest.approx(0.0, abs=1e-10)


def test_superop_self_fidelity(rng):
    u = random_unitary(4, rng)
    s_chan = unitary_to_superop_pauli(u)
    assert process_fidelity_superop(s_chan, u) == pytest.approx(1.0, abs=1e-10)


def test_superop_and_choi_paths_agree(rng):
    for _ in range(10):
        dim = 4
        u = random_unitary(dim, rng)
        ops = random_cptp_kraus(dim, rng)
        sigma = kraus_to_choi(ops)
        f_choi = state_fidelity(sigma, choi_ket_of_unitary(u))
        f_superop = process_fidelity_superop(choi_to_superop_pauli(sigma), u)
        assert abs(f_choi - f_superop) < 1e-8

