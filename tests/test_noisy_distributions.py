"""Outcome distributions against independent references.

Noise-aware tables are checked against the Kraus-sum evolution in
``kraus_oracle``; noise-free tables, which run the same code under
``NOISELESS``, against the per-setting state-vector measurement in
``measurement_oracle``.
"""

import dataclasses
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gate_oracle
import kraus_oracle
import measurement_oracle
import readout_oracle
from ccxlab import cli, experiments, simulator
from ccxlab.calibration import builtin_calibration_path, ingest_calibration
from ccxlab.circuits import Circuit, circuit_unitary, serialize_circuit
from ccxlab.errors import NonNativeGateError, UsageError
from ccxlab.experiments import ExperimentConfig
from ccxlab.gates import NATIVE_GATES, Gate, GateDef, ecr, rz, sx, x
from ccxlab.noise import NOISELESS, NoiseModel, QubitCalibration, scale_noise_model
from ccxlab.states import PROBE_LABELS, StateKind, prepare_state, probe_circuit
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli
from ccxlab.tomography import measurement_rotation, qst_settings

from conftest import prepared_states, random_density_matrix

CALIBRATIONS = ("brisbane_median", "sherbrooke_median")
TOL = 1e-12


def _toffoli(strategy=DecompositionStrategy.ECR_NATIVE):
    return decompose_toffoli(strategy, (0, 1), 2)


NATIVE_STRATEGIES = [s for s in DecompositionStrategy
                     if all(g.name in NATIVE_GATES for g in _toffoli(s).gates)]
OTHER_STRATEGIES = [s for s in DecompositionStrategy if s not in NATIVE_STRATEGIES]


def _noise_model(calibration="brisbane_median"):
    return ingest_calibration(builtin_calibration_path(calibration)).noise_model(3)


def _probe_preparations():
    return [probe_circuit(p) for p in itertools.product(PROBE_LABELS, repeat=3)]


#: the one-qubit letters the per-qubit layers take: the probes, and the measurement rotations
PROBE_ALPHABET = [probe_circuit((label,)) for label in PROBE_LABELS]
ROTATION_ALPHABET = [measurement_rotation(letter) for letter in "XYZ"]


def _letter_products(alphabet, n):
    """Every product of one letter per wire as a whole n-qubit circuit, wire 0 slowest:
    what the per-qubit layers build from ``alphabet``, for the dense oracles."""
    return [Circuit(n, tuple(GateDef(g.name, (q,), g.params)
                             for q, letter in enumerate(letters) for g in letter.gates))
            for letters in itertools.product(alphabet, repeat=n)]


def _distributions(state, nm, strategy=DecompositionStrategy.ECR_NATIVE):
    """The exact (settings x outcomes) table the experiments feed to tomography."""
    return experiments._distributions(prepared_states([prepare_state(state)], nm),
                                      _toffoli(strategy), nm)[0]


def _per_circuit_distributions(preparations, gate, nm):
    """The table as the experiments built it before the preparations shared one
    evolution of ``gate``: one ``run_density`` per whole circuit, kept as an oracle."""
    table = simulator.readout_map(ROTATION_ALPHABET, 3, nm)
    return np.array([simulator.setting_distributions(
        simulator.run_density(prep.concat(gate), nm), table) for prep in preparations])


def test_ecr_native_is_the_native_strategy():
    assert NATIVE_STRATEGIES == [DecompositionStrategy.ECR_NATIVE]


@pytest.mark.parametrize("calibration", CALIBRATIONS)
@pytest.mark.parametrize("strategy", NATIVE_STRATEGIES)
def test_qpt_distributions_match_kraus_oracle(strategy, calibration):
    toffoli, nm = _toffoli(strategy), _noise_model(calibration)
    preps = _probe_preparations()
    ground = np.zeros((8, 8), dtype=complex)
    ground[0, 0] = 1.0
    batch = np.stack([kraus_oracle.evolve(ground, prep, nm) for prep in preps], axis=2)
    batch = kraus_oracle.evolve(batch, toffoli, nm)
    batch = (batch + batch.conj().transpose(1, 0, 2)) / 2
    expected = kraus_oracle.setting_distributions(batch, nm)
    actual = experiments._distributions(prepared_states(preps, nm), toffoli, nm)
    actual = actual.transpose(1, 2, 0)
    assert actual.shape == expected.shape == (27, 8, 64)
    assert np.max(np.abs(actual - expected)) < TOL


@pytest.mark.parametrize("inputs", ["GHZ", "W", "UNIFORM", "PROBES"])
def test_noise_free_distributions_match_statevector_oracle(inputs):
    toffoli = _toffoli()
    preparations = _probe_preparations() if inputs == "PROBES" else [prepare_state(inputs)]
    expected = [measurement_oracle.setting_distributions(
        circuit_unitary(prep.concat(toffoli))[:, 0], 3) for prep in preparations]
    actual = experiments._distributions(prepared_states(preparations, NOISELESS), toffoli,
                                        NOISELESS)
    assert actual.shape == (len(preparations), 27, 8)
    assert np.max(np.abs(actual - expected)) < TOL


@pytest.mark.parametrize("calibration", CALIBRATIONS)
@pytest.mark.parametrize("strategy", OTHER_STRATEGIES)
def test_non_native_strategies_are_rejected_under_noise(strategy, calibration):
    nm = _noise_model(calibration)
    with pytest.raises(NonNativeGateError):
        _distributions(StateKind.GHZ, nm, strategy=strategy)


@pytest.mark.parametrize("apply_readout", [True, False])
@pytest.mark.parametrize("calibration", CALIBRATIONS)
@pytest.mark.parametrize("state", ["GHZ", "W", "UNIFORM"])
def test_qst_distributions_match_kraus_oracle(state, calibration, apply_readout):
    # a run without readout error runs under the calibrated model with zero confusion;
    # the oracle reads the calibrated model and drops its confusion by its own flag
    circuit = prepare_state(state).concat(_toffoli())
    nm = _noise_model(calibration)
    expected = kraus_oracle.setting_distributions(kraus_oracle.run_density(circuit, nm), nm,
                                                  apply_readout)
    cfg = ExperimentConfig(mode="NOISE_AWARE", apply_readout=apply_readout,
                           calibration_path=str(builtin_calibration_path(calibration)))
    actual = _distributions(state, cfg.noise_model())
    assert np.max(np.abs(actual - expected)) < TOL


def _uneven_noise_model():
    # the packaged calibrations are one symmetric record broadcast to every qubit;
    # here each qubit has its own relaxation, readout length and asymmetric confusion
    cals = tuple(QubitCalibration(t1_us=t1, t2_us=t2, prob_meas1_prep0=p10,
                                  prob_meas0_prep1=p01, readout_length_ns=length)
                 for t1, t2, p10, p01, length in ((100.0, 150.0, 0.01, 0.05, 1000.0),
                                                  (200.0, 120.0, 0.03, 0.002, 1500.0),
                                                  (80.0, 60.0, 0.0, 0.08, 700.0)))
    return NoiseModel(cals, {"ECR": 0.01, "SX": 0.001, "X": 0.002},
                      {"ECR": 500.0, "SX": 40.0, "X": 60.0})


@pytest.mark.parametrize("state", ["GHZ", "W"])
def test_distributions_match_kraus_oracle_with_uneven_qubits(state):
    nm = _uneven_noise_model()
    circuit = prepare_state(state).concat(_toffoli())
    expected = kraus_oracle.setting_distributions(kraus_oracle.run_density(circuit, nm), nm)
    actual = _distributions(state, nm)
    assert np.max(np.abs(actual - expected)) < TOL


@pytest.mark.parametrize("model", ["NOISELESS", *CALIBRATIONS, "uneven"])
@pytest.mark.parametrize("inputs", ["GHZ", "W", "UNIFORM", "PROBES"])
def test_one_shared_evolution_matches_the_per_circuit_path(inputs, model):
    # the gate under test evolves all preparations as one stack; the per-circuit path
    # evolves each whole circuit on its own, and fuses its gates into other blocks, so the
    # two sum in other orders and agree to round-off. Noise-free, both draw the same counts
    nm = {"NOISELESS": NOISELESS, "uneven": _uneven_noise_model()}.get(model)
    nm = nm or _noise_model(model)
    preparations = _probe_preparations() if inputs == "PROBES" else [prepare_state(inputs)]
    expected = _per_circuit_distributions(preparations, _toffoli(), nm)
    actual = experiments._distributions(prepared_states(preparations, nm), _toffoli(), nm)
    assert actual.shape == expected.shape == (len(preparations), 27, 8)
    assert np.max(np.abs(actual - expected)) <= 1e-15
    if nm is NOISELESS:
        for seed in ((7, 0), (1, 0)):
            assert np.array_equal(simulator.sample_distribution(actual, 11000, seed),
                                  simulator.sample_distribution(expected, 11000, seed))


def _model(name):
    models = {"NOISELESS": NOISELESS, "uneven": _uneven_noise_model()}
    return models[name] if name in models else _noise_model(name)


@pytest.mark.parametrize("model", ["NOISELESS", *CALIBRATIONS, "uneven"])
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_the_per_wire_readout_map_matches_the_gate_by_gate_oracle(num_qubits, model):
    # every setting's block is the tensor product of its wires' 2 x 4 maps, one per (wire,
    # letter). Noise-free it has the bits of the dense gate-by-gate construction of every
    # setting's whole rotation circuit, under noise its values to round-off
    nm = _model(model)
    rotations = [measurement_rotation(s) for s in qst_settings(num_qubits)]
    assert _letter_products(ROTATION_ALPHABET, num_qubits) == rotations
    actual = simulator.readout_map(ROTATION_ALPHABET, num_qubits, nm)
    expected = readout_oracle.readout_map(rotations, nm)
    assert actual.shape == expected.shape == (6 ** num_qubits, 4 ** num_qubits)
    if nm is NOISELESS:
        assert np.array_equal(actual, expected)
    else:
        assert np.max(np.abs(actual - expected)) <= 1e-15


@pytest.mark.parametrize("model", ["NOISELESS", *CALIBRATIONS, "uneven"])
def test_product_probe_states_match_per_probe_dense_evolution(model):
    # each (wire, probe letter) evolves alone and each state is the product of its wires'.
    # Noise-free it has the bits of evolving each product of letters whole; under noise its
    # values to round-off, and each wire relaxes with its own qubit's calibration, as the
    # Kraus oracle has it
    nm, probes = _model(model), _letter_products(PROBE_ALPHABET, 3)
    ground = np.zeros((8, 8), dtype=complex)
    ground[0, 0] = 1.0
    dense = prepared_states(probes, nm)
    product = simulator.product_states(PROBE_ALPHABET, 3, nm)
    assert product.shape == dense.shape == (8, 8, 64)
    if nm is NOISELESS:
        assert np.array_equal(product, dense)
    else:
        assert np.max(np.abs(product - dense)) <= 1e-15
        kraus = np.stack([kraus_oracle.evolve(ground, p, nm) for p in probes], axis=-1)
        assert np.max(np.abs(product - kraus)) < TOL


@pytest.mark.parametrize("build", [simulator.product_states, simulator.readout_map])
def test_a_per_qubit_layer_rejects_a_two_qubit_gate(build):
    # an alphabet comes from outside the simulator: a letter that is not a one-qubit circuit,
    # such as a probe preparation or a measurement rotation that entangles, is a typed usage
    # error, and a letter outside the native gate set is not native
    for letters in ([Circuit(1, (sx(0),)), Circuit(2, (sx(0), ecr(0, 1)))], ["X"], []):
        with pytest.raises(UsageError, match="one-qubit circuits only|at least one") as info:
            build(letters, 3, NOISELESS)
        assert info.value.exit_code == 2
    with pytest.raises(NonNativeGateError) as info:
        build([Circuit(1, (sx(0),)), Circuit(1, (GateDef(Gate.H, (0,)),))], 3, NOISELESS)
    assert info.value.exit_code == 2


def test_channel_builders_run_once_per_distinct_noisy_gate(monkeypatch):
    builds = []
    for name in ("depolarizing_channel", "thermal_relaxation_channel"):
        def counted(*args, _build=getattr(simulator, name)):
            builds.append(args)
            return _build(*args)
        monkeypatch.setattr(simulator, name, counted)
    nm, toffoli = _noise_model(), _toffoli()
    preparations = simulator.product_states(PROBE_ALPHABET, 3, nm)
    experiments._distributions(preparations, toffoli, nm)
    rotations = [measurement_rotation(setting) for setting in qst_settings(3)]
    noisy = {g for c in _probe_preparations() + [toffoli] + rotations for g in c.gates
             if g.name is not Gate.RZ}
    # per noisy gate one depolarizing and one relaxation per qubit; one readout relaxation per qubit
    assert len(builds) == sum(1 + len(g.qubits) for g in noisy) + 3 == 21
    # a second table reuses every gate channel, cached on the model; only its readout map,
    # built once per table, relaxes each qubit again
    experiments._distributions(preparations, toffoli, nm)
    assert len(builds) == 21 + 3


def test_a_second_table_on_the_same_model_compiles_nothing(monkeypatch):
    # a model caches each gate's channel, so a second table on it builds no gate channel.
    # It builds the Toffoli's 8 fused blocks and its readout map again from those channels,
    # once per table, and applies one product per block to the stack of 64 probe states,
    # prepared per wire as a run does
    nm, toffoli = _noise_model(), _toffoli()
    preparations = simulator.product_states(PROBE_ALPHABET, 3, nm)
    first = experiments._distributions(preparations, toffoli, nm)
    calls = Counter()
    for module, name in ((simulator, "_gate_superop"), (simulator, "_block_channel"),
                         (simulator, "_compile"), (simulator, "_apply_superop"),
                         (experiments, "readout_map")):
        def counted(*args, _call=getattr(module, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    second = experiments._distributions(preparations, toffoli, nm)
    assert calls == {"_block_channel": 8, "_compile": 8, "_apply_superop": 8, "readout_map": 1}
    assert np.array_equal(first, second)


def _native_gates(n):
    wire = st.integers(0, n - 1)
    return st.one_of(
        st.builds(x, wire), st.builds(sx, wire), st.builds(lambda q: GateDef(Gate.ID, (q,)), wire),
        st.builds(rz, st.floats(-10, 10, allow_nan=False), wire),
        st.builds(lambda a, b: ecr(a, (a + b) % n), wire, st.integers(1, n - 1)))


@st.composite
def _native_circuits(draw, sizes):
    n = draw(st.sampled_from(sizes))
    return Circuit(n, tuple(draw(st.lists(_native_gates(n), max_size=24))))


def _assert_blocks_partition(circuit):
    blocks = simulator._blocks(circuit)
    assert sum(len(gates) for _, gates in blocks) == len(circuit.gates)
    for wires, gates in blocks:
        multi = [g for g in gates if len(g.qubits) > 1]
        assert all(set(g.qubits) <= set(wires) for g in gates)
        assert [tuple(sorted(g.qubits)) for g in multi] == ([wires] if len(wires) > 1 else [])
    # each wire's gates in circuit order, so every gate falls in exactly one block
    for q in range(circuit.num_qubits):
        assert [g for _, gates in blocks for g in gates if q in g.qubits] \
            == [g for g in circuit.gates if q in g.qubits]


@pytest.mark.parametrize("sizes", [(3,), (4, 5)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fused_blocks_match_the_gate_by_gate_oracle(sizes, data):
    # registers of 4 and 5 qubits take the local-contraction branch; each model is a fresh
    # copy over the circuit's qubits, so no example leaves its compiled blocks behind
    circuit = data.draw(_native_circuits(sizes), label="circuit")
    _assert_blocks_partition(circuit)
    n = circuit.num_qubits
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    rho = np.stack([random_density_matrix(2 ** n, rng) for _ in range(2)], axis=-1)
    for model in ("NOISELESS", "brisbane_median", "uneven"):
        nm = _model(model)
        nm = dataclasses.replace(nm, qubit_cal=(nm.qubit_cal * 2)[:n])
        fused = simulator.apply_circuit_density(rho, circuit, nm)
        assert np.max(np.abs(fused - gate_oracle.evolve(rho, circuit, nm))) <= 1e-14


def test_scaled_models_get_their_own_distributions():
    circuit = prepare_state("W").concat(_toffoli())
    base = _noise_model()
    tables = {}
    for scale in (1.0, 2.0, 0.0, 1.0):
        nm = base if scale == 1.0 else scale_noise_model(base, scale)
        expected = kraus_oracle.setting_distributions(kraus_oracle.run_density(circuit, nm), nm)
        tables[scale] = _distributions("W", nm)
        assert np.max(np.abs(tables[scale] - expected)) < TOL, scale
    assert np.max(np.abs(tables[2.0] - tables[1.0])) > 1e-3
    assert np.max(np.abs(tables[0.0] - tables[1.0])) > 1e-3


@pytest.mark.parametrize("run", [experiments.run_qst_experiment, experiments.run_qpt_experiment])
def test_noise_aware_exact_fidelity_is_one_at_zero_scale(run):
    cfg = experiments.ExperimentConfig(
        mode="NOISE_AWARE", calibration_path=str(builtin_calibration_path("brisbane_median")),
        repeats=1, exact_probabilities=True, noise_scale=0.0)
    assert run(cfg).fidelities[0] == pytest.approx(1.0, abs=TOL)


def test_cli_simulate_with_noise_matches_kraus_oracle(tmp_path, capsys):
    circuit = prepare_state("GHZ").concat(_toffoli())
    path = tmp_path / "ghz_toffoli.txt"
    path.write_text(serialize_circuit(circuit))
    assert cli.main(["simulate", str(path), "--noise", "builtin:brisbane_median"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["backend"] == "density"
    expected = np.real(np.diag(kraus_oracle.run_density(circuit, _noise_model())))
    assert np.max(np.abs(np.array(out["populations"]) - expected)) < TOL


def _random_native_circuit(num_qubits, rng, length=30):
    gates = []
    for _ in range(length):
        q = int(rng.integers(0, num_qubits))
        kind = int(rng.integers(0, 4 if num_qubits > 1 else 3))
        if kind == 0:
            gates.append(sx(q))
        elif kind == 1:
            gates.append(x(q))
        elif kind == 2:
            gates.append(rz(float(rng.uniform(-3, 3)), q))
        else:
            other = q + 1 if q + 1 < num_qubits else q - 1
            gates.append(ecr(q, other))
    return Circuit(num_qubits, tuple(gates))


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_density_evolution_matches_kraus_oracle_on_every_register_size(num_qubits, rng):
    # registers above _DENSE_SUPEROP_MAX_QUBITS contract local superoperators instead
    circuit = _random_native_circuit(num_qubits, rng)
    nm = ingest_calibration(builtin_calibration_path("brisbane_median")).noise_model(num_qubits)
    rho = simulator.run_density(circuit, nm)
    assert np.max(np.abs(rho - kraus_oracle.run_density(circuit, nm))) < TOL
    # a stack of prepared states evolves through the circuit as each would on its own
    preparations = [_random_native_circuit(num_qubits, rng, length=5) for _ in range(3)]
    stack = simulator.run_density(circuit, nm, prepared_states(preparations, nm))
    assert stack.shape == rho.shape + (3,)
    for i, prep in enumerate(preparations):
        alone = simulator.run_density(prep.concat(circuit), nm)
        assert np.max(np.abs(stack[..., i] - alone)) < TOL
    psi = circuit_unitary(circuit)[:, 0]
    pure = simulator.run_density(circuit, NOISELESS)
    assert np.max(np.abs(pure - np.outer(psi, psi.conj()))) < TOL
