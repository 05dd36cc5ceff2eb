import dataclasses
import itertools
import math

import numpy as np
import pytest

from ccxlab.circuits import Circuit, _apply_local, circuit_unitary
from ccxlab import simulator
from ccxlab.errors import CcxlabError, MissingCalibrationError, NonNativeGateError
from ccxlab.gates import Gate, GateDef, cnot, ecr, gate_matrix, h, rz, sx, x
from ccxlab.noise import NOISELESS, NoiseModel, QubitCalibration
from ccxlab.qmath import state_fidelity
from ccxlab.simulator import run_density, sample_distribution
from ccxlab.states import ghz_circuit, uniform_state
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli, native_h
from ccxlab.tomography import measurement_rotation, qst_settings

from conftest import basis_circuit, prepared_states, random_density_matrix, random_state_vector
from measurement_oracle import measurement_probabilities


def _toffoli_native():
    return decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)


def _noise_model(ecr_err=0.00756, sx_err=0.000236, t1=272.21, t2=188.10,
                 p10=0.0, p01=0.0, readout_len=0.0):
    cal = QubitCalibration(t1_us=t1, t2_us=t2, prob_meas1_prep0=p10,
                           prob_meas0_prep1=p01, readout_length_ns=readout_len)
    return NoiseModel((cal,) * 3, {"ECR": ecr_err, "SX": sx_err, "X": sx_err},
                      {"ECR": 533.0, "SX": 57.0, "X": 57.0})


def test_empty_circuit_gives_ground_state():
    rho = run_density(Circuit(3), NOISELESS)
    assert rho[0, 0] == 1.0 and np.allclose(rho.reshape(-1)[1:], 0.0)


def test_native_toffoli_truth_table():
    circ = _toffoli_native()
    # |110> in role order (both controls set, target clear) = basis index 3
    full = basis_circuit(3).concat(circ)
    psi = circuit_unitary(full)[:, 0]
    assert abs(psi[7]) == pytest.approx(1.0, abs=1e-10)
    # |010> (only control 1 set) = basis index 2 stays put
    full = basis_circuit(2).concat(circ)
    psi = circuit_unitary(full)[:, 0]
    assert abs(psi[2]) == pytest.approx(1.0, abs=1e-10)


def test_native_hadamards_give_uniform_state():
    gates = tuple(g for q in range(3) for g in native_h(q))
    psi = circuit_unitary(Circuit(3, gates))[:, 0]
    assert np.max(np.abs(np.abs(psi) - 1 / math.sqrt(8))) < 1e-10
    rho = np.outer(psi, psi.conj())
    assert state_fidelity(rho, uniform_state()) == pytest.approx(1.0, abs=1e-10)


def test_non_native_gates_rejected():
    for gate in (cnot(0, 1), GateDef(Gate.CCX, (0, 1, 2)), h(0)):
        with pytest.raises(NonNativeGateError):
            run_density(Circuit(3, (gate,)), NOISELESS)


def _scale_gate_matrices(monkeypatch, factor):
    monkeypatch.setattr(simulator, "gate_matrix", lambda g: factor * gate_matrix(g))


def test_density_trace_drift_raises_typed_error(monkeypatch):
    _scale_gate_matrices(monkeypatch, 1.01)
    # a model of its own: the drifted gate must not enter NOISELESS's shared cache
    with pytest.raises(CcxlabError, match="density trace drifted") as info:
        run_density(Circuit(1, (sx(0),)), dataclasses.replace(NOISELESS))
    assert info.value.exit_code == 4


def test_density_at_zero_noise_matches_statevector(rng):
    for _ in range(50):
        gates = []
        for _ in range(rng.integers(1, 12)):
            kind = rng.integers(0, 4)
            q = int(rng.integers(0, 3))
            if kind == 0:
                gates.append(sx(q))
            elif kind == 1:
                gates.append(x(q))
            elif kind == 2:
                gates.append(rz(float(rng.uniform(-3, 3)), q))
            else:
                q2 = int((q + 1) % 3)
                gates.append(ecr(q, q2))
        circ = Circuit(3, tuple(gates))
        psi = circuit_unitary(circ)[:, 0]
        rho = run_density(circ, NOISELESS)
        assert state_fidelity(rho, psi) > 1 - 1e-9


def test_a_circuit_wider_than_its_noise_model_is_a_usage_error():
    nm = NoiseModel((QubitCalibration(t1_us=100.0, t2_us=100.0),) * 2)
    with pytest.raises(MissingCalibrationError, match="qubit 2") as info:
        run_density(ghz_circuit(), nm)
    assert info.value.exit_code == 2


def test_noisy_toffoli_on_ghz_degrades():
    circ = ghz_circuit().concat(_toffoli_native())
    rho = run_density(circ, _noise_model())
    psi = circuit_unitary(circ)[:, 0]
    fid = state_fidelity(rho, psi)
    assert fid < 1.0
    assert fid > 0.5
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity < 1.0


def test_purity_bounded():
    circ = ghz_circuit()
    rho = run_density(circ, NOISELESS)
    assert np.real(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-10)
    rho = run_density(circ, _noise_model())
    assert np.real(np.trace(rho @ rho)) <= 1.0 + 1e-10


# -- sampling ----------------------------------------------------------------------

def _sample(state, setting, shots, seed):
    return sample_distribution(measurement_probabilities(state, setting), shots, (seed,))


def test_ground_state_z_sampling_deterministic_outcome():
    counts = _sample(circuit_unitary(Circuit(1))[:, 0], "Z", 1000, seed=3)
    assert counts.tolist() == [1000, 0]


def test_sampling_seed_determinism():
    psi = circuit_unitary(ghz_circuit())[:, 0]
    a = _sample(psi, "XYZ", 5000, seed=42)
    b = _sample(psi, "XYZ", 5000, seed=42)
    assert np.array_equal(a, b)
    c = _sample(psi, "XYZ", 5000, seed=43)
    assert not np.array_equal(a, c)


def test_sampling_rejects_nonpositive_shots():
    with pytest.raises(ValueError, match="shots"):
        sample_distribution(np.array([1.0, 0.0]), 0, seed=(1,))


def test_a_table_draws_every_cell_row_major_from_one_generator():
    table = np.random.default_rng(3).dirichlet(np.ones(8), size=(4, 3))
    counts = sample_distribution(table, 500, (7, 2))
    assert counts.shape == (4, 3, 8) and np.all(counts.sum(axis=-1) == 500)
    rng = np.random.default_rng((7, 2))
    assert np.array_equal(counts.reshape(-1, 8),
                          [rng.multinomial(500, p) for p in table.reshape(-1, 8)])
    # so the first cells of a table draw the same counts whatever its length
    assert np.array_equal(sample_distribution(table[:1], 500, (7, 2)), counts[:1])


def test_ghz_zzz_binomial_band():
    psi = circuit_unitary(ghz_circuit())[:, 0]
    counts = _sample(psi, "ZZZ", 19000, seed=11)
    assert set(np.flatnonzero(counts)) <= {0, 7}
    sigma = math.sqrt(19000 * 0.25)
    assert abs(counts[0] - 9500) < 4 * sigma


def test_readout_confusion_flip_rate():
    nm = NoiseModel((QubitCalibration(t1_us=100.0, t2_us=100.0, prob_meas1_prep0=0.1),), {}, {})
    table = simulator.readout_map([Circuit(1)], 1, nm)
    probs = simulator.setting_distributions(run_density(Circuit(1), nm), table)[0]
    counts = sample_distribution(probs, 20000, seed=(5,))
    frac_one = counts[1] / 20000
    sigma = math.sqrt(0.1 * 0.9 / 20000)
    assert abs(frac_one - 0.1) < 4 * sigma


def test_readout_confusion_matrix_is_columnwise():
    # qubit 0 misreads a true 0 as 1 with prob 0.2: from |00>, outcome index 1 gains that weight
    nm = NoiseModel((QubitCalibration(t1_us=100.0, t2_us=100.0, prob_meas1_prep0=0.2),
                     QubitCalibration(t1_us=100.0, t2_us=100.0)), {}, {})
    table = simulator.readout_map([Circuit(1)], 2, nm)
    probs = simulator.setting_distributions(run_density(Circuit(2), nm), table)[0]
    assert probs[1] == pytest.approx(0.2)
    assert probs[0] == pytest.approx(0.8)
    assert probs[2] == probs[3] == 0.0


def test_empirical_tvd_convergence(rng):
    shots = 4096
    bound = 5 * math.sqrt(8 / shots)
    failures = 0
    psi = random_state_vector(8, np.random.default_rng(0))
    probs = measurement_probabilities(psi, "XYZ")
    for seed in range(100):
        emp = sample_distribution(probs, shots, seed=(seed,)) / shots
        tvd = 0.5 * np.sum(np.abs(emp - probs))
        if tvd > bound:
            failures += 1
    assert failures <= 1  # 99% of seeded runs inside the bound


def test_noiseless_readout_map_matches_oracle_on_mixed_states(rng):
    settings = qst_settings(3)
    table = simulator.readout_map([measurement_rotation(letter) for letter in "XYZ"], 3,
                                  NOISELESS)
    for _ in range(5):
        rho = random_density_matrix(8, rng)
        expected = [measurement_probabilities(rho, s) for s in settings]
        assert np.max(np.abs(simulator.setting_distributions(rho, table) - expected)) < 1e-12


@pytest.mark.parametrize("noisy", [False, True])
def test_a_stack_of_states_reads_each_state_bit_for_bit(rng, noisy):
    # seeded counts turn on which probabilities are exactly 0, so a batched read must give
    # each state's distributions to the last bit, not merely to round-off
    nm = _noise_model(p10=0.02, p01=0.03, readout_len=1200.0) if noisy else NOISELESS
    table = simulator.readout_map([measurement_rotation(letter) for letter in "XYZ"], 3, nm)
    preparations = [basis_circuit(b) for b in range(8)] + [ghz_circuit()]
    prepared = prepared_states(preparations, nm)
    stack = np.concatenate([run_density(_toffoli_native(), nm, prepared),
                            np.stack([random_density_matrix(8, rng) for _ in range(4)], -1)], -1)
    batched = simulator.setting_distributions(stack, table)
    assert batched.shape == (13, 27, 8)
    for i in range(13):
        assert np.array_equal(batched[i], simulator.setting_distributions(stack[..., i], table))


def _tensordot_embed(local, wires, n):
    """Oracle: ``local`` on the sorted ``wires`` of n, contracted into the 2^n identity."""
    dim = 2 ** n
    eye = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    return _apply_local(eye, local, wires, n).reshape(dim, dim)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_embedding_copies_exactly_what_the_tensordot_contraction_gives(num_qubits, rng):
    # every sorted subset of the 2n wires of vec(rho) on an n-qubit register
    n = 2 * num_qubits
    for size in range(1, n + 1):
        for wires in itertools.combinations(range(n), size):
            local = rng.normal(size=(2 ** size,) * 2) + 1j * rng.normal(size=(2 ** size,) * 2)
            assert np.array_equal(simulator._embed(local, wires, n),
                                  _tensordot_embed(local, wires, n)), wires


def test_a_nan_trace_is_a_drift(monkeypatch):
    # a NaN in a compiled map fails the trace check instead of slipping past it
    def nan_gate(g, nm):
        k = len(g.qubits)
        return np.full((4 ** k, 4 ** k), np.nan, dtype=complex)
    monkeypatch.setattr(simulator, "_gate_superop", nan_gate)
    nm = dataclasses.replace(NOISELESS)  # a fresh cache, so nothing compiled is reused
    with pytest.raises(CcxlabError, match="trace drifted"):
        run_density(Circuit(1, (sx(0),)), nm)


def test_a_nan_gate_parameter_is_a_drift():
    nm = dataclasses.replace(NOISELESS)  # a fresh cache: the NaN channel stays out of NOISELESS
    with pytest.raises(CcxlabError, match="trace drifted"):
        run_density(Circuit(1, (rz(math.nan, 0), sx(0))), nm)
