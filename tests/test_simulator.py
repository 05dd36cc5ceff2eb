import itertools
import math

import numpy as np
import pytest

from ccxlab.circuits import Circuit, _apply_local, circuit_unitary
from ccxlab import simulator
from ccxlab.errors import CcxlabError, UsageError
from ccxlab.gates import Gate, GateDef, cnot, ecr, gate_matrix, h, rz, sx, x
from ccxlab.calibration import builtin_calibration_path, ingest_calibration
from ccxlab.noise import (NOISELESS, NoiseModel, QubitCalibration, depolarizing_channel,
                          thermal_relaxation_channel)
from ccxlab.qmath import state_fidelity
from ccxlab.simulator import run_density, sample_distribution
from ccxlab.states import StateKind, ghz_circuit, prepare_state, uniform_state
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli, native_h
from ccxlab.tomography import measurement_rotation, qst_settings

from conftest import basis_circuit, prepared_states, random_density_matrix, random_state_vector
from contraction_oracle import apply_local
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
        with pytest.raises(UsageError, match=f"^gate {gate.name.value} is not in the native set"):
            run_density(Circuit(3, (gate,)), NOISELESS)


def _scale_gate_matrices(monkeypatch, factor):
    monkeypatch.setattr(simulator, "gate_matrix", lambda g: factor * gate_matrix(g))


def test_density_trace_drift_raises_typed_error(monkeypatch, fresh_channels):
    _scale_gate_matrices(monkeypatch, 1.01)
    # the fixture empties the channel cache after the test, so the drifted gate leaves none
    with pytest.raises(CcxlabError, match="density trace drifted") as info:
        run_density(Circuit(1, (sx(0),)), NOISELESS)
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
    with pytest.raises(UsageError, match="^no calibration for qubit 2$") as info:
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
    with pytest.raises(ValueError, match="shots"):  # when called, before any seed is drawn
        simulator.draws(np.array([1.0, 0.0]), 0, [])


@pytest.mark.parametrize("shots", [-5, simulator.MAX_SHOTS + 1, 10 ** 19])
def test_draws_refuses_shots_outside_one_to_max_shots_as_a_usage_error(shots):
    # past the int64 range numpy's multinomial raised an OverflowError at the first draw
    message = f"^shots must be positive and at most {simulator.MAX_SHOTS}, got {shots}$"
    with pytest.raises(UsageError, match=message) as error:
        simulator.draws(np.array([1.0, 0.0]), shots, [])
    assert (error.value.category, error.value.exit_code) == ("usage", 2)
    assert list(simulator.draws(np.array([1.0, 0.0]), simulator.MAX_SHOTS, [])) == []


def test_drawing_many_seeds_from_one_rounding_gives_each_seed_its_own_counts():
    # a table is rounded once, by draw_form, and every repeat's seed is drawn from that
    # rounding; each seed's counts are bit for bit those of a sample_distribution call on
    # that seed alone. The table holds exact zeros and round-off zeros of ~1e-17, which the
    # rounding drops
    table = np.random.default_rng(5).dirichlet(np.ones(8), size=(6, 27))
    table[::2, :, 3] = 0.0
    table[1::2, :, 5] = 1e-17
    table /= table.sum(axis=-1, keepdims=True)
    seeds = [(11, r) for r in range(4)]
    drawn = simulator.draws(simulator.draw_form(table), 19000, iter(seeds))
    assert not isinstance(drawn, (list, tuple, np.ndarray))  # drawn lazily, seed by seed
    drawn = list(drawn)
    assert len(drawn) == len(seeds)
    for counts, seed in zip(drawn, seeds):
        assert np.array_equal(counts, sample_distribution(table, 19000, seed))
    assert not np.array_equal(drawn[0], drawn[1])


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
    return apply_local(eye, local, wires, n).reshape(dim, dim)


def _embedded(local, on, wires):
    """Oracle: ``local`` on the qubits ``on`` of a block on ``wires``, as the block's whole
    superoperator."""
    k = len(wires)
    return _tensordot_embed(local, simulator._vec_wires([wires.index(q) for q in on], k), 2 * k)


def _embed_and_multiply_gate(g, nm):
    """Oracle for ``_gate_superop``: U (x) conj(U), then depolarizing, then each qubit's
    relaxation, embedded and multiplied in."""
    wires = sorted(g.qubits)
    u = gate_matrix(g)
    superop = np.kron(u, u.conj())
    if nm.error_for(g.name) > 0.0:
        superop = depolarizing_channel(nm.error_for(g.name), 2 ** len(wires)) @ superop
    if nm.duration_for(g.name) > 0.0:
        for q in g.qubits:
            cal = nm.calibration(q)
            relax = thermal_relaxation_channel(nm.duration_for(g.name), cal.t1_us, cal.t2_us)
            superop = _embedded(relax, [q], wires) @ superop
    return superop


def _random_native_circuit(n, rng):
    """Up to 24 native gates on n wires: X, SX, ID, RZ and, given two wires or more, ECR."""
    def gate(q):
        kind = rng.integers(5 if n > 1 else 4)
        if kind == 3:
            return rz(float(rng.uniform(-10, 10)), q)
        if kind == 4:
            return ecr(q, (q + int(rng.integers(1, n))) % n)
        return (x, sx, lambda wire: GateDef(Gate.ID, (wire,)))[kind](q)

    return Circuit(n, tuple(gate(int(rng.integers(n))) for _ in range(rng.integers(25))))


@pytest.mark.parametrize("model", ["NOISELESS", "brisbane_median"])
@pytest.mark.parametrize("circuits", ["toffoli", "QST inputs", "random"])
def test_gate_channels_are_bit_for_bit_the_embed_and_multiply_products(circuits, model, rng):
    # applying each relaxation by the register gather gives exactly what embedding it into
    # the gate's wires and multiplying gave: the embedding only adds terms that are exact zeros
    chosen = {"toffoli": lambda: [_toffoli_native()],
              "QST inputs": lambda: [prepare_state(kind) for kind in StateKind],
              "random": lambda: [_random_native_circuit(n, rng)
                                 for n in range(1, 6) for _ in range(12)]}[circuits]()
    for circuit in chosen:
        n = circuit.num_qubits
        nm = NOISELESS if model == "NOISELESS" else \
            ingest_calibration(builtin_calibration_path(model)).noise_model(n)
        for g in circuit.gates:
            assert np.array_equal(simulator._gate_superop(g, nm), _embed_and_multiply_gate(g, nm))


def _assert_gather_matches_contraction(local, bits, width, batch, rng, exact):
    flat = rng.normal(size=(2 ** width,) + batch) + 1j * rng.normal(size=(2 ** width,) + batch)
    gathered = _apply_local(flat, local, bits, width)
    contracted = apply_local(flat.reshape([2] * width + list(batch)), local, list(bits),
                             width).reshape(flat.shape)
    if exact:
        assert np.array_equal(gathered, contracted), (bits, width, batch)
    else:
        assert np.max(np.abs(gathered - contracted)) <= 1e-15, (bits, width, batch)


_BATCHES = [(), (1,), (3,), (2, 3)]
_PERMUTATIONS = {1: gate_matrix(x(0)), 2: gate_matrix(cnot(0, 1)),
                 3: gate_matrix(GateDef(Gate.CCX, (0, 1, 2)))}
_PERMUTATIONS[4] = np.kron(_PERMUTATIONS[3], _PERMUTATIONS[1])


def _random_local(k, rng):
    return rng.normal(size=(2 ** k,) * 2) + 1j * rng.normal(size=(2 ** k,) * 2)


@pytest.mark.parametrize("width", range(1, 9))
def test_the_index_gather_applies_what_the_tensordot_contraction_gives(width, rng):
    # every subset of 1-4 bits; permutation-valued locals move entries exactly, random ones
    # agree to round-off
    for k in range(1, min(4, width) + 1):
        for bits in itertools.combinations(range(width), k):
            for batch in _BATCHES:
                _assert_gather_matches_contraction(_PERMUTATIONS[k], bits, width, batch, rng,
                                                   exact=True)
                _assert_gather_matches_contraction(_random_local(k, rng), bits, width, batch,
                                                   rng, exact=False)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_index_gather_applies_superoperators_on_the_vec_layout(n, rng):
    # the 2k bits of vec(rho) that a channel on every 1- and 2-wire set of n qubits acts on
    for k in (1, 2):
        for wires in itertools.combinations(range(n), k):
            bits = simulator._vec_wires(wires, n)
            for batch in _BATCHES:
                _assert_gather_matches_contraction(_PERMUTATIONS[2 * k], bits, 2 * n, batch,
                                                   rng, exact=True)
                _assert_gather_matches_contraction(_random_local(2 * k, rng), bits, 2 * n,
                                                   batch, rng, exact=False)


def test_a_nan_trace_is_a_drift(monkeypatch, fresh_channels):
    # a NaN in a compiled map fails the trace check instead of slipping past it; the fixture
    # empties the channel cache before and after, so no channel is reused or left behind
    def nan_gate(g, nm):
        k = len(g.qubits)
        return np.full((4 ** k, 4 ** k), np.nan, dtype=complex)
    monkeypatch.setattr(simulator, "_gate_superop", nan_gate)
    with pytest.raises(CcxlabError, match="trace drifted"):
        run_density(Circuit(1, (sx(0),)), NOISELESS)


def test_a_nan_gate_parameter_is_a_drift(fresh_channels):
    # the fixture empties the channel cache after the test: the NaN channel is not kept
    with pytest.raises(CcxlabError, match="trace drifted"):
        run_density(Circuit(1, (rz(math.nan, 0), sx(0))), NOISELESS)
