"""End-to-end experiment runs, their determinism, and report files."""

import csv
import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ccxlab import cli, experiments, simulator, states, tomography
from ccxlab.calibration import builtin_calibration_path
from ccxlab.circuits import Circuit, circuit_unitary, serialize_circuit
from ccxlab.errors import SchemaError, UsageError
from ccxlab.experiments import (
    DEFAULT_CONTROLS,
    DEFAULT_TARGET,
    HARDWARE_REFERENCE_FIDELITY,
    ExperimentConfig,
    Mode,
    emit_report,
    load_report,
    run_qpt_experiment,
    run_qst_experiment,
)
from ccxlab.gates import ecr, rz, sx, x
from ccxlab.noise import NOISELESS
from ccxlab.qmath import state_fidelity
from ccxlab.states import PROBE_LABELS, StateKind, prepare_state, probe_circuit, target_state
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli, toffoli_unitary
from ccxlab.tomography import average_gate_fidelity, qst_reconstruct

from conftest import unprojected

BRISBANE = str(builtin_calibration_path("brisbane_median"))

#: fidelities of two repeats, master seed 7, ECR_NATIVE, default shots
#: (19000 per QST setting, 11000 per QPT setting); state/mode/sampling -> values
GOLDEN_QST = {
    "GHZ/NOISE_FREE/sampled": (0.9959578784912548, 0.9962902033800201),
    "GHZ/NOISE_FREE/exact": (0.9999999999999997, 0.9999999999999997),
    "GHZ/NOISE_AWARE/sampled": (0.8076652046783622, 0.8096038011695902),
    "GHZ/NOISE_AWARE/exact": (0.8085363137362074, 0.8085363137362074),
    "W/NOISE_FREE/sampled": (0.9946799604627223, 0.9967848688308367),
    "W/NOISE_FREE/exact": (1.0, 1.0),
    "W/NOISE_AWARE/sampled": (0.7753031189083823, 0.7743791423001951),
    "W/NOISE_AWARE/exact": (0.7729763699351656, 0.7729763699351656),
    "UNIFORM/NOISE_FREE/sampled": (0.9969241837055727, 0.9960151460905228),
    "UNIFORM/NOISE_FREE/exact": (0.9999999999999992, 0.9999999999999992),
    "UNIFORM/NOISE_AWARE/sampled": (0.8470307017543849, 0.8468362573099412),
    "UNIFORM/NOISE_AWARE/exact": (0.8457903290684488, 0.8457903290684488),
}
GOLDEN_QPT_NOISE_FREE = {
    "sampled": (0.9902749577578231, 0.9895108566641464),
    "exact": (1.0, 1.0),
}
#: the same under NOISE_AWARE with builtin:brisbane_median and readout confusion on
GOLDEN_QPT_NOISE_AWARE = {
    "sampled": (0.7962435800727266, 0.797691787816224),
    "exact": (0.7999530056455366, 0.7999530056455366),
}


def _config(mode="NOISE_FREE", state="GHZ", exact=False, repeats=2, **kwargs):
    return ExperimentConfig(mode=mode, input_state=state, master_seed=7, repeats=repeats,
                            calibration_path=BRISBANE if mode == "NOISE_AWARE" else None,
                            exact_probabilities=exact, **kwargs)


@pytest.mark.parametrize("key", sorted(GOLDEN_QST))
def test_qst_fidelities_match_golden_values(key):
    state, mode, sampling = key.split("/")
    report = run_qst_experiment(_config(mode, state, sampling == "exact"))
    assert report.fidelities == pytest.approx(GOLDEN_QST[key], abs=1e-12)
    assert report.num_jobs == 27


def _assert_unprojected_estimates_are_trace_preserving(seen, monkeypatch):
    # per-probe linear inversion fixes <I> = 1, so each repeat's raw Choi is TP to round-off
    for frequencies in seen:
        raw = unprojected(tomography.qpt_reconstruct, frequencies, 3, monkeypatch)
        assert tomography.tp_deviation(raw, 8) < 1e-10


@pytest.mark.parametrize("sampling", sorted(GOLDEN_QPT_NOISE_FREE))
def test_qpt_fidelities_match_golden_values(sampling, monkeypatch):
    seen = _captured(monkeypatch, "qpt_reconstruct")
    report = run_qpt_experiment(_config(exact=sampling == "exact", shots_per_setting=11000))
    assert report.fidelities == pytest.approx(GOLDEN_QPT_NOISE_FREE[sampling], abs=1e-12)
    assert report.num_jobs == 1728
    _assert_unprojected_estimates_are_trace_preserving(seen, monkeypatch)


@pytest.mark.parametrize("sampling", sorted(GOLDEN_QPT_NOISE_AWARE))
def test_noise_aware_qpt_fidelities_match_golden_values(sampling, monkeypatch):
    seen = _captured(monkeypatch, "qpt_reconstruct")
    report = run_qpt_experiment(_config("NOISE_AWARE", exact=sampling == "exact",
                                        shots_per_setting=11000))
    assert report.fidelities == pytest.approx(GOLDEN_QPT_NOISE_AWARE[sampling], abs=1e-12)
    assert report.num_jobs == 1728
    _assert_unprojected_estimates_are_trace_preserving(seen, monkeypatch)


def _clear_process_constants():
    for constant in (experiments._subject, experiments._table, simulator._local_channel):
        constant.cache_clear()


@pytest.fixture
def fresh_noiseless():
    """``NOISELESS`` with no gate channel or exact table cached for one test, and no
    per-process constants of ``experiments`` built yet; all of them are emptied again after it.

    The channel and table caches are keyed by value and live for the whole process, and so
    do the records of ``experiments._subject``, so a test that counts what a
    first run computes starts them empty, whatever ran before. Cleared entries are simply
    built again by the next run that needs them. The inversion map and the probe dual of
    ``tomography`` are per-process constants of another kind: built once from ``NOISELESS``
    by the first run that reconstructs, in any test. They are built here, before the caches
    are emptied, so that what a test counts is its run's own work, alone or in the suite.
    """
    tomography._real_estimator(3)
    tomography._probe_dual(3)
    _clear_process_constants()
    yield NOISELESS
    _clear_process_constants()


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_each_circuit_is_built_and_simulated_once_per_run(monkeypatch, fresh_noiseless, run,
                                                          mode, repeats):
    # both modes take the one path: noise-free is a run under NOISELESS, here with an empty
    # cache, so this is a first run. One run_density evolves the Toffoli once, on the whole
    # stack of prepared states. A first QST run builds its own input alone with
    # prepare_state, and evolves it whole with one more run_density; QPT builds its 4 one-qubit
    # probe letters with tomography's probe_alphabet, and product_states evolves each
    # (wire, letter) once, on that wire alone, into the 4^3 = 64 probe states
    calls = Counter()
    for module, name, key in ((experiments, "prepare_state", "preparation"),
                              (tomography, "probe_circuit", "preparation"),
                              (experiments, "product_states", "product_states"),
                              (experiments, "run_density", "run_density"),
                              (experiments, "readout_map", "readout_map"),
                              (simulator, "apply_circuit_density", "apply_circuit_density")):
        def counted(*args, _call=getattr(module, name), _key=key, **kwargs):
            calls[_key] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def on_wires(alphabet, n, evolve, _call=simulator._letters_on_wires):
        def counted(q, gates):
            if len(alphabet) == len(PROBE_LABELS):  # the probes; 3 rotations build the readout
                calls["probe wire evolution"] += 1
            return evolve(q, gates)
        return _call(alphabet, n, counted)

    monkeypatch.setattr(simulator, "_letters_on_wires", on_wires)
    report = run(_config(mode, repeats=repeats, shots_per_setting=1000))
    assert len(report.fidelities) == repeats
    if run is run_qst_experiment:
        assert calls == {"preparation": 1, "run_density": 2,
                         "apply_circuit_density": 2, "readout_map": 1}
    else:
        assert calls == {"preparation": len(PROBE_LABELS), "product_states": 1,
                         "probe wire evolution": 12,
                         "run_density": 1, "apply_circuit_density": 1, "readout_map": 1}


#: what a run builds once per process, as looked up in ``experiments``
_ONCE_PER_PROCESS_CALLS = ("prepare_state", "target_state", "toffoli_unitary",
                           "choi_ket_of_unitary", "decompose_toffoli")


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run, state", [(run_qst_experiment, kind) for kind in StateKind]
                         + [(run_qpt_experiment, None)])
def test_a_second_run_builds_no_input_target_ket_or_gate_count(monkeypatch, fresh_noiseless,
                                                               run, state, mode):
    # the QST input, its target ket (U|in>, or the Choi ket of U for QPT) and the gate counts
    # depend on neither the model nor the seed: the first run of an input or kind builds its
    # record, and a second one only looks it up. A first run of another input builds that
    # input's record alone, and synthesizes no Toffoli; a second run of it builds nothing
    cfg = _config(mode, state or "GHZ", repeats=2, shots_per_setting=100)
    first = run(cfg)
    counts = dict(first.gate_counts)
    calls = Counter()
    for name in _ONCE_PER_PROCESS_CALLS:
        def counted(*args, _call=getattr(experiments, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(experiments, name, counted)
    first.gate_counts["circuit_depth"] = -1  # a report's counts are its own
    again = run(dataclasses.replace(cfg, master_seed=8))
    assert calls == Counter()
    assert again.gate_counts == counts
    subjects = [experiments._subject(cfg.strategy, state or "qpt")]
    if state is not None:
        for other in [kind for kind in StateKind if kind is not state]:
            run(dataclasses.replace(cfg, input_state=other))
            assert calls == {"prepare_state": 1, "target_state": 1, "toffoli_unitary": 1}
            calls.clear()
            run(dataclasses.replace(cfg, input_state=other, master_seed=8))
            assert calls == Counter()
            subjects.append(experiments._subject(cfg.strategy, other))
    for subject in subjects:
        assert not subject.ket.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            subject.ket[0] = 0.0
        with pytest.raises(TypeError):
            subject.gate_counts["circuit_depth"] = -1


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
def test_a_qpt_run_applies_the_toffoli_once_to_all_preparations(monkeypatch, fresh_noiseless,
                                                                mode):
    # in a first run, each gate of the Toffoli acts once, through its cached channel, on the
    # stack of all 64 probe states: 44 products for the 44 gates of ECR_NATIVE. No gate acts
    # on a single probe's three-qubit state, since the probes' gates run per wire, and the
    # readout map is built per wire as well
    stacks = []

    def apply(vecs, *args, _call=simulator._apply_superop):
        stacks.append(vecs.shape)
        return _call(vecs, *args)

    monkeypatch.setattr(simulator, "_apply_superop", apply)
    cfg = _config(mode, repeats=1, shots_per_setting=100)
    run_qpt_experiment(cfg)
    toffoli = decompose_toffoli(cfg.strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    assert len(toffoli.gates) == 44
    assert stacks == [(64, 64)] * 44


#: what a warm run must not call: every step from a gate channel to a table's draw form
_COMPILE_STEPS = ((simulator, "_gate_superop"), (simulator, "_apply_superop"),
                  (tomography, "to_native"), (states, "to_native"),
                  (tomography, "readout_map"), (tomography, "product_states"),
                  (experiments, "run_density"), (experiments, "product_states"),
                  (experiments, "readout_map"), (experiments, "_distributions"),
                  (experiments, "draw_form"))


def _assert_a_second_run_compiles_nothing(monkeypatch, run, cfg):
    """Run ``cfg`` twice: the second run calls none of ``_COMPILE_STEPS``, hits the table
    cache once, misses neither cache and gives the first run's fidelities. Returns the calls
    the second run made to ``experiments.ingest_calibration``."""
    first = run(cfg)
    builds = Counter()
    for module, name in _COMPILE_STEPS + ((experiments, "ingest_calibration"),):
        def counted(*args, _call=getattr(module, name), _name=name):
            builds[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    tables, channels = experiments._table.cache_info(), simulator._local_channel.cache_info()
    assert run(cfg).fidelities == first.fidelities
    after = experiments._table.cache_info()
    assert (after.hits, after.misses) == (tables.hits + 1, tables.misses)
    assert simulator._local_channel.cache_info() == channels
    return builds


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_second_noise_free_run_compiles_nothing(monkeypatch, run, exact):
    # the table cache keeps NOISELESS's exact table and its draw form, the channel cache its
    # gate channels, and the rotation and probe circuits are built once per process, so only
    # the first noise-free run pays for any of them: a second one compiles, evolves,
    # prepares, reads out and rounds nothing. Every input or probe circuit is lowered by
    # states.to_native, and the inversion maps read tomography's readout_map and
    # product_states, once per process.
    cfg = _config(repeats=1, shots_per_setting=100, exact=exact)
    assert cfg.noise_model() is NOISELESS
    assert _assert_a_second_run_compiles_nothing(monkeypatch, run, cfg) == Counter()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_second_noise_aware_run_compiles_nothing(monkeypatch, run, exact):
    # a noise-aware run reads its calibration file and builds a new model every time, but
    # that model equals the first run's, and the caches are keyed by its numbers: a second
    # run with the same calibration compiles, evolves, reads out and rounds nothing
    cfg = _config("NOISE_AWARE", repeats=1, shots_per_setting=100, exact=exact)
    nm = cfg.noise_model()
    assert cfg.noise_model() is not nm and cfg.noise_model() == nm and nm != NOISELESS
    builds = _assert_a_second_run_compiles_nothing(monkeypatch, run, cfg)
    assert builds == {"ingest_calibration": 1}


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_calibration_file_edited_between_runs_gets_a_new_model(monkeypatch, tmp_path,
                                                                 fresh_noiseless, run):
    # the table cache is keyed by the model's numbers, not by the file's path, so a run after
    # the file changed builds its own model, computes its own table and scores its own noise
    path = tmp_path / "calibration.json"
    payload = json.loads(Path(BRISBANE).read_text())
    path.write_text(json.dumps(payload))
    cfg = dataclasses.replace(_config("NOISE_AWARE", exact=True, repeats=1),
                              calibration_path=str(path))
    tables = _counted_tables(monkeypatch)
    before = cfg.noise_model()
    first = run(cfg)
    payload["qubits"][0]["t1_us"] /= 2
    path.write_text(json.dumps(payload))
    after = cfg.noise_model()
    assert after is not before and after != before
    second = run(cfg)
    assert len(tables) == 2 and not np.array_equal(tables[0], tables[1])
    assert second.fidelities[0] != first.fidelities[0]
    assert cfg.noise_model() == after


def test_the_noise_scale_and_the_readout_switch_get_their_own_models():
    configs = [_config("NOISE_AWARE", noise_scale=scale, apply_readout=readout)
               for scale in (0.5, 1.0) for readout in (True, False)]
    models = [cfg.noise_model() for cfg in configs]
    assert len(set(models)) == 4
    assert all(cfg.noise_model() == nm for cfg, nm in zip(configs, models))


def test_the_table_cache_evicts_the_least_recently_used_entry(monkeypatch, fresh_noiseless):
    # the bound keeps a sweep over distinct numbers from growing memory: one model more than
    # the cache holds evicts the least recently used table, which a later run then computes
    # again, bit for bit, while the most recently used one is still a hit
    configs = [_config("NOISE_AWARE", exact=True, repeats=1, noise_scale=0.05 * (i + 1))
               for i in range(experiments._TABLES + 1)]
    tables = _counted_tables(monkeypatch)
    for cfg in configs:
        run_qst_experiment(cfg)
    assert len(tables) == len(configs)
    assert experiments._table.cache_info().currsize == experiments._TABLES
    run_qst_experiment(configs[-1])
    assert len(tables) == len(configs)
    run_qst_experiment(configs[0])
    assert len(tables) == len(configs) + 1 and np.array_equal(tables[0], tables[-1])


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_run_caches_only_its_gate_channels_and_one_table(monkeypatch, fresh_noiseless, run,
                                                           mode):
    # the table cache already spares a warm run its evolution and readout map, so nothing
    # else is kept: no readout map, no state. A first run adds one table entry, its table
    # and draw form both read-only, and one channel per distinct gate it compiled, each
    # compiled once
    compiled = []

    def counted(g, nm, _call=simulator._gate_superop):
        compiled.append((g, nm))
        return _call(g, nm)

    monkeypatch.setattr(simulator, "_gate_superop", counted)
    cfg = _config(mode, repeats=1, shots_per_setting=100)
    run(cfg)
    assert experiments._table.cache_info().currsize == 1
    preparations = "qpt" if run is run_qpt_experiment else cfg.input_state
    entry = experiments._table(cfg.noise_model(), cfg.strategy, preparations)
    assert len(entry) == 2 and not any(array.flags.writeable for array in entry)
    assert len(set(compiled)) == len(compiled) == simulator._local_channel.cache_info().currsize
    assert all(nm == cfg.noise_model() for _, nm in compiled)


def test_running_many_circuits_caches_only_their_gate_channels(fresh_noiseless):
    # NOISELESS lives as long as the process, so what it caches per circuit would grow
    # without bound over a sweep of distinct circuits; the channel cache compiles each
    # distinct gate once and keeps at most its bound of them
    rng = np.random.default_rng(2024)
    circuits = set()
    for _ in range(60):
        gates = []
        for _ in range(20):
            q = int(rng.integers(3))
            kind = rng.integers(3)
            if kind == 0:
                gates.append(rz(float(rng.uniform(-np.pi, np.pi)), q))
            elif kind == 1:
                gates.append(sx(q))
            else:
                gates.append(ecr(q, (q + 1 + int(rng.integers(2))) % 3))
        circuit = Circuit(3, tuple(gates))
        circuits.add(circuit)
        rho = simulator.run_density(circuit, NOISELESS)
        assert abs(np.trace(rho) - 1.0) < 1e-12
    assert len(circuits) >= 50
    distinct = len({g for c in circuits for g in c.gates})
    channels = simulator._local_channel.cache_info()
    assert channels.misses == distinct
    assert channels.currsize == min(distinct, simulator._CHANNELS)
    assert experiments._table.cache_info().currsize == 0


def test_a_sweep_of_random_rz_angles_keeps_at_most_the_channel_bound(fresh_noiseless):
    # 2000 two-qubit circuits, each with two RZ angles of its own: 4002 distinct gates, of
    # which the cache keeps the most recently used _CHANNELS, and a recent gate is still a hit
    rng = np.random.default_rng(29)
    for _ in range(2000):
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        simulator.run_density(Circuit(2, (rz(float(a), 0), sx(0), rz(float(b), 1), ecr(0, 1))),
                              NOISELESS)
    channels = simulator._local_channel.cache_info()
    assert channels.misses == 4002
    assert channels.currsize == simulator._CHANNELS < channels.misses
    simulator.run_density(Circuit(2, (sx(0), ecr(0, 1))), NOISELESS)
    assert simulator._local_channel.cache_info().misses == 4002


def _counted_tables(monkeypatch):
    """The tables ``experiments._distributions`` computes, in call order."""
    tables = []

    def counted(*args, _call=experiments._distributions):
        tables.append(_call(*args))
        return tables[-1]

    monkeypatch.setattr(experiments, "_distributions", counted)
    return tables


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_model_with_edited_numbers_computes_its_own_table(monkeypatch, fresh_noiseless, run):
    # the table cache is keyed by the model's numbers: the second run at scale 0.5 builds a
    # new, equal model and reads the first one's table, and the run with other numbers
    # computes its own and scores its own noise
    run(_config(repeats=1, shots_per_setting=100))  # NOISELESS holds its table from here on
    tables = _counted_tables(monkeypatch)
    configs = [_config("NOISE_AWARE", exact=True, repeats=1, noise_scale=scale)
               for scale in (0.5, 0.5, 1.0)]
    fidelities = [run(cfg).fidelities for cfg in configs]
    assert len(tables) == 2 and not np.array_equal(tables[0], tables[1])
    assert configs[0].noise_model() == configs[1].noise_model()
    assert fidelities[0] == fidelities[1] and fidelities[1][0] > fidelities[2][0]


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_the_cached_table_is_read_only_and_exact_runs_leave_it_unchanged(
        monkeypatch, fresh_noiseless, run):
    # an exact-probability run hands the cached table itself to the estimators (QPT takes it
    # as is; QST stacks it), so no reader may write into the one array later runs read
    tables = _counted_tables(monkeypatch)
    seen = _captured(monkeypatch, "qpt_reconstruct")
    cfg = _config(exact=True, repeats=2)
    first = run(cfg)
    (table,) = tables
    preparations = "qpt" if run is run_qpt_experiment else cfg.input_state
    assert experiments._table(NOISELESS, cfg.strategy, preparations)[0] is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 0.5
    assert all(frequencies is table for frequencies in seen)
    before = table.copy()
    assert run(cfg).fidelities == first.fidelities
    assert len(tables) == 1 and np.array_equal(table, before)


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_second_run_synthesizes_nothing(monkeypatch, run, mode):
    # the Toffoli under test is synthesized once per strategy and process, whatever the
    # kind or mode of the run that first needs it
    cfg = _config(mode, repeats=1, shots_per_setting=100)
    run(cfg)
    calls = Counter()

    def counted(*args, _call=experiments.decompose_toffoli):
        calls["decompose_toffoli"] += 1
        return _call(*args)

    monkeypatch.setattr(experiments, "decompose_toffoli", counted)
    run(cfg)
    assert calls == Counter()


def test_a_qpt_run_draws_each_table_just_before_it_reconstructs(monkeypatch):
    # the table's draw form is rounded once per model, the run makes one draws call, and the
    # repeats' (64, 27, 8) tables are drawn lazily from the form, each by its own generator,
    # so one is held at a time
    events = []
    draws, default_rng = experiments.draws, np.random.default_rng
    reconstruct = experiments.qpt_reconstruct
    monkeypatch.setattr(experiments, "draws",
                        lambda *args: events.append("round") or draws(*args))
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: events.append("draw") or default_rng(seed))
    monkeypatch.setattr(experiments, "qpt_reconstruct",
                        lambda *args: events.append("reconstruct") or reconstruct(*args))
    run_qpt_experiment(_config(repeats=3, shots_per_setting=100))
    assert events == ["round"] + ["draw", "reconstruct"] * 3


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run, name", [(run_qst_experiment, "qst_reconstruct"),
                                       (run_qpt_experiment, "qpt_reconstruct")])
def test_a_second_sampled_run_on_the_same_model_rounds_nothing(monkeypatch, fresh_noiseless,
                                                               run, name, mode):
    # the table cache keeps the table's draw form, read-only, next to the table: a later
    # sampled run on the model draws from it and rounds nothing, and repeat r's counts are
    # still sample_distribution's of the exact table for the seed (1, r)
    run(_config(mode, repeats=1, shots_per_setting=100))
    calls = Counter()

    def counted(module, function):
        def call(*args, _call=getattr(module, function)):
            calls[function] += 1
            return _call(*args)
        monkeypatch.setattr(module, function, call)

    counted(experiments, "draw_form")
    counted(np, "round")
    seen = _captured(monkeypatch, name)
    cfg = dataclasses.replace(_config(mode, repeats=3, shots_per_setting=500), master_seed=1)
    run(cfg)
    assert calls == Counter()
    nm = cfg.noise_model()
    preparations = "qpt" if run is run_qpt_experiment else cfg.input_state
    table, form = experiments._table(nm, cfg.strategy, preparations)
    assert not form.flags.writeable
    qst = run is run_qst_experiment
    assert len(seen) == (1 if qst else 3)  # state tomography reconstructs one stack
    frequencies = seen[0] if qst else seen
    assert len(frequencies) == 3
    for r in range(3):
        counts = simulator.sample_distribution(table, 500, (1, r))
        assert np.array_equal(frequencies[r], (counts[0] if qst else counts) / 500)


def _captured(monkeypatch, name):
    """The frequencies each repeat hands to ``experiments.<name>``, in call order."""
    seen = []
    reconstruct = getattr(experiments, name)

    def captured(frequencies, k):
        seen.append(frequencies)
        return reconstruct(frequencies, k)

    monkeypatch.setattr(experiments, name, captured)
    return seen


def _qst_table(cfg):
    toffoli = decompose_toffoli(cfg.strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    nm = cfg.noise_model()
    prepared = simulator.run_density(prepare_state(cfg.input_state), nm)[..., None]
    return experiments._distributions(prepared, toffoli, nm)


@pytest.mark.parametrize("state", list(StateKind))
@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
def test_qst_seed_layout(monkeypatch, mode, state):
    # repeat r draws the whole (1, 27, 8) table from one generator seeded (master_seed, r);
    # one estimator call reconstructs the repeats' tables, stacked in repeat order
    seen = _captured(monkeypatch, "qst_reconstruct")
    cfg = _config(mode, state, repeats=3, shots_per_setting=1000)
    run_qst_experiment(cfg)
    table = _qst_table(cfg)
    assert len(seen) == 1 and seen[0].shape == (3, 27, 8)
    for r, frequencies in enumerate(seen[0]):
        draws = simulator.sample_distribution(table, 1000, (cfg.master_seed, r))
        assert np.array_equal(frequencies, draws[0] / 1000)


def test_qpt_seed_layout(monkeypatch):
    # repeat r draws the whole (64, 27, 8) table, probe-major, from one generator
    # seeded (master_seed, r)
    seen = _captured(monkeypatch, "qpt_reconstruct")
    cfg = _config(repeats=2, shots_per_setting=1000)
    run_qpt_experiment(cfg)
    toffoli = decompose_toffoli(cfg.strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    nm = cfg.noise_model()
    probes = simulator.product_states([probe_circuit((label,)) for label in PROBE_LABELS], 3, nm)
    table = experiments._distributions(probes, toffoli, nm)
    assert len(seen) == 2
    for r, frequencies in enumerate(seen):
        draws = simulator.sample_distribution(table, 1000, (cfg.master_seed, r))
        assert np.array_equal(frequencies, draws / 1000)


@pytest.mark.parametrize("seed", [(7, 0), (7, 1), (1, 0)])
def test_noise_free_counts_do_not_depend_on_how_the_table_was_summed(seed):
    # the noise-free QPT table read off as one matrix-vector product per state, and as one
    # (216, 64) x (64, 64) product: BLAS sums the two in other orders, so round-off zeros and
    # last bits differ, yet a draw rounds each distribution first and gets the same counts
    toffoli = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, DEFAULT_CONTROLS,
                                DEFAULT_TARGET)
    probes = [probe_circuit((label,)) for label in PROBE_LABELS]
    rho = simulator.run_density(toffoli, NOISELESS,
                                simulator.product_states(probes, 3, NOISELESS))
    readout = simulator.readout_map([tomography.measurement_rotation(letter)
                                     for letter in "XYZ"], 3, NOISELESS)
    per_state = simulator.setting_distributions(rho, readout)
    product = np.clip(np.real(readout @ rho.reshape(64, 64)), 0.0, None)
    product = np.moveaxis(product.reshape(27, 8, 64), -1, 0)
    product = product / product.sum(axis=-1, keepdims=True)
    assert not np.array_equal(per_state, product)
    assert np.max(np.abs(per_state - product)) < 1e-15
    assert np.array_equal(simulator.sample_distribution(per_state, 11000, seed),
                          simulator.sample_distribution(product, 11000, seed))


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_repeat_does_not_depend_on_how_many_repeats_run(run):
    one = run(_config(repeats=1, shots_per_setting=1000)).fidelities
    three = run(_config(repeats=3, shots_per_setting=1000)).fidelities
    assert three[0] == one[0]
    assert len(set(three)) == 3


def _per_cell_layout_fidelities(cfg):
    """QST fidelities under the retired seed layout, kept as an oracle: setting j of
    repeat r drew from its own generator, seeded with the first uint64 word of
    SeedSequence((master_seed, r, j))."""
    table = _qst_table(cfg)[0]
    psi = toffoli_unitary(DEFAULT_CONTROLS, DEFAULT_TARGET) @ target_state(cfg.input_state)
    fidelities = []
    for r in range(cfg.repeats):
        seeds = [np.random.SeedSequence((cfg.master_seed, r, j)).generate_state(1, np.uint64)[0]
                 for j in range(len(table))]
        frequencies = [np.random.default_rng(int(seed)).multinomial(cfg.shots_per_setting, p)
                       for seed, p in zip(seeds, table)]
        fidelities.append(state_fidelity(
            qst_reconstruct(np.array(frequencies) / cfg.shots_per_setting, 3), psi))
    return fidelities


def _ks_pvalue(a, b):
    """Asymptotic two-sample Kolmogorov-Smirnov p-value (Numerical Recipes, 3rd ed., 14.3.3)."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, both, side="right") / len(a)
                      - np.searchsorted(b, both, side="right") / len(b)))
    en = np.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (en + 0.12 + 0.11 / en) * d
    k = np.arange(1, 101)
    return float(np.clip(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * (k * lam) ** 2)), 0, 1))


def test_one_draw_per_repeat_matches_the_per_cell_layout_in_distribution():
    # both layouts draw exact multinomials, so their fidelity distributions agree. The
    # noise-free output is pure, so the projection to the nearest state acts on every
    # estimate, and at 1000 shots its bias depends on the shot count: the same test tells a
    # run that draws half the shots apart. (A nearly full-rank noise-aware output is left
    # almost unprojected, and its fidelity spreads too little with the shots to tell.)
    cfg = _config("NOISE_FREE", "W", repeats=300, shots_per_setting=1000)
    per_cell = _per_cell_layout_fidelities(cfg)
    assert _ks_pvalue(per_cell, run_qst_experiment(cfg).fidelities) > 0.01
    half = dataclasses.replace(cfg, shots_per_setting=500)
    assert _ks_pvalue(per_cell, run_qst_experiment(half).fidelities) < 1e-6


@pytest.mark.parametrize("field, value", [("master_seed", 1.5), ("master_seed", True),
                                          ("shots_per_setting", 100.7),
                                          ("shots_per_setting", "100"), ("repeats", 2.0),
                                          ("repeats", False)])
def test_integer_config_fields_reject_other_types(field, value):
    with pytest.raises(UsageError, match=field) as error:
        ExperimentConfig(**{field: value})
    assert error.value.exit_code == 2


@pytest.mark.parametrize("field, value, allowed", [
    ("mode", "FOO", Mode), ("mode", None, Mode), ("strategy", "X", DecompositionStrategy),
    ("input_state", "PROBE", StateKind), ("input_state", "BASIS", StateKind),
    ("input_state", "ghz", StateKind)])
def test_enum_config_fields_reject_other_values(field, value, allowed):
    with pytest.raises(UsageError, match=field) as error:
        ExperimentConfig(**{field: value})
    assert error.value.exit_code == 2
    assert all(member.value in str(error.value) for member in allowed)


def test_integer_config_fields_accept_numpy_integers():
    cfg = ExperimentConfig(master_seed=np.uint32(5), repeats=np.int64(2))
    assert (cfg.master_seed, cfg.repeats) == (5, 2)
    assert type(cfg.master_seed) is int and type(cfg.repeats) is int


@pytest.mark.parametrize("value", ["no", None, 0, 1, np.int64(1), 1.0])
@pytest.mark.parametrize("field", ["exact_probabilities", "apply_readout"])
def test_boolean_config_fields_reject_other_types(field, value):
    # checked before the noise-free check, which a falsy apply_readout would trip
    with pytest.raises(UsageError, match=f"^{field} must be a bool, got ") as error:
        ExperimentConfig(**{field: value})
    assert error.value.exit_code == 2


def test_boolean_config_fields_accept_numpy_bools(tmp_path):
    # stored as Python bools, so the report's config echo saves as JSON
    cfg = ExperimentConfig(exact_probabilities=np.True_, apply_readout=np.True_, repeats=1)
    assert type(cfg.exact_probabilities) is bool and type(cfg.apply_readout) is bool
    report = run_qst_experiment(cfg)
    assert report.config is cfg
    assert experiments.report_to_dict(report)["config"]["exact_probabilities"] is True
    assert load_report(emit_report(report, "json", tmp_path / "r.json")) == report
    aware = ExperimentConfig(mode="NOISE_AWARE", calibration_path=BRISBANE,
                             apply_readout=np.False_)
    assert aware.apply_readout is False


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, "3", True, None, 1j])
def test_noise_scale_must_be_a_finite_nonnegative_real(value):
    with pytest.raises(UsageError, match="noise_scale") as error:
        ExperimentConfig(mode="NOISE_AWARE", calibration_path=BRISBANE, noise_scale=value)
    assert error.value.exit_code == 2


@pytest.mark.parametrize("value, expected", [(0, 0.0), (2, 2.0), (np.float32(0.5), 0.5),
                                             (Fraction(3, 2), 1.5)])
def test_noise_scale_accepts_finite_nonnegative_reals(value, expected):
    cfg = ExperimentConfig(mode="NOISE_AWARE", calibration_path=BRISBANE, noise_scale=value)
    assert cfg.noise_scale == expected and type(cfg.noise_scale) is float


def test_a_noise_free_config_rejects_a_calibration_path():
    # a noise-free run never reads the file, so a path it would only echo is a usage error,
    # as noise_scale and apply_readout are
    with pytest.raises(UsageError, match="calibration_path") as error:
        ExperimentConfig(mode="NOISE_FREE", calibration_path=BRISBANE)
    assert error.value.exit_code == 2


@pytest.mark.parametrize("path", [None, ""])
def test_a_noise_aware_config_needs_a_calibration_path(path):
    # the CLI cannot reach this: an empty --noise is a noise-free run
    with pytest.raises(UsageError, match="^NOISE_AWARE mode requires a calibration path$") \
            as error:
        ExperimentConfig(mode="NOISE_AWARE", calibration_path=path)
    assert (error.value.category, error.value.exit_code) == ("usage", 2)


class _BytesPath:
    """An ``os.PathLike`` whose path is bytes, which no report echo can hold as a string."""

    def __fspath__(self):
        return b"calibration.json"


@pytest.mark.parametrize("mode", ["NOISE_AWARE", "NOISE_FREE"])
@pytest.mark.parametrize("path", [5, 1.5, b"calibration.json", ["calibration.json"],
                                  _BytesPath()])
def test_a_calibration_path_that_is_not_a_path_is_a_usage_error(mode, path):
    # 5 was accepted, and the noise-aware run then died in Path(5) with a bare TypeError
    with pytest.raises(UsageError, match="^calibration_path must be None, a str or an "
                                         "os.PathLike, got ") as error:
        ExperimentConfig(mode=mode, calibration_path=path)
    assert (error.value.category, error.value.exit_code) == ("usage", 2)


def test_a_path_calibration_saves_its_report_and_loads_it_back(tmp_path):
    # an os.PathLike calibration path is kept as its string, so the report echoes a string
    # that JSON can hold, and the run is the one a string path gives
    path = builtin_calibration_path("brisbane_median")
    cfg = ExperimentConfig(mode="NOISE_AWARE", calibration_path=path, repeats=1,
                           exact_probabilities=True)
    assert cfg.calibration_path == str(path) and type(cfg.calibration_path) is str
    assert cfg == dataclasses.replace(cfg, calibration_path=str(path))
    report = run_qst_experiment(cfg)
    assert experiments.report_to_dict(report)["config"]["calibration_path"] == str(path)
    assert load_report(emit_report(report, "json", tmp_path / "r.json")) == report


# -- ccxlab simulate ----------------------------------------------------------------

def _simulate(tmp_path, capsys, circuit, *flags):
    path = tmp_path / "circuit.txt"
    path.write_text(serialize_circuit(circuit))
    code = cli.main(["simulate", str(path), *flags])
    return code, capsys.readouterr().out


def test_cli_simulate_shots_counts_are_msb_first_bitstrings(tmp_path, capsys):
    code, out = _simulate(tmp_path, capsys, Circuit(3, (x(0),)), "--shots", "500")
    assert code == 0
    payload = json.loads(out)
    # qubit 0 is the rightmost character
    assert payload["counts"] == {"001": 500}
    assert payload["shots"] == 500


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
def test_cli_simulate_shots_are_seeded(tmp_path, capsys, noise):
    circuit = Circuit(3, (sx(0), sx(1), x(2)))
    code, first = _simulate(tmp_path, capsys, circuit, "--shots", "700", "--seed", "5", *noise)
    assert code == 0
    assert sum(json.loads(first)["counts"].values()) == 700
    assert _simulate(tmp_path, capsys, circuit, "--shots", "700", "--seed", "5", *noise) \
        == (0, first)


def test_cli_simulate_without_noise_is_a_pure_density_run(tmp_path, capsys):
    circuit = Circuit(3, (sx(0), sx(1), x(2)))
    code, out = _simulate(tmp_path, capsys, circuit, "--shots", "700", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["backend"] == "density"
    assert payload["purity"] == pytest.approx(1.0, abs=1e-12)
    expected = np.abs(circuit_unitary(circuit)[:, 0]) ** 2
    assert np.max(np.abs(np.array(payload["populations"]) - expected)) < 1e-12
    assert payload["counts"] == {"100": 187, "101": 165, "110": 185, "111": 163}


# -- report files -----------------------------------------------------------------

@pytest.fixture
def report_file(tmp_path):
    report = run_qst_experiment(_config(exact=True, repeats=1))
    return emit_report(report, "json", tmp_path / "report.json")


def test_report_round_trip(report_file, tmp_path):
    again = emit_report(load_report(report_file), "json", tmp_path / "again.json")
    assert again.read_text() == report_file.read_text()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_that_cannot_be_written_or_read_is_an_io_error(report_file, tmp_path, fmt):
    report = load_report(report_file)
    with pytest.raises(SchemaError, match="cannot write report") as info:
        emit_report(report, fmt, tmp_path / "missing" / f"report.{fmt}")
    assert info.value.exit_code == 3
    with pytest.raises(SchemaError, match="cannot read report") as info:
        load_report(tmp_path / "missing.json")
    assert info.value.exit_code == 3


@pytest.fixture(scope="module", params=["qst", "qpt"])
def sampled_report(request):
    # noise-aware sampled repeats, so every fidelity carries all 17 digits
    run = run_qst_experiment if request.param == "qst" else run_qpt_experiment
    return run(_config("NOISE_AWARE", "W", repeats=3, shots_per_setting=500))


def test_a_json_report_loads_back_equal(sampled_report, tmp_path):
    assert load_report(emit_report(sampled_report, "json", tmp_path / "r.json")) == sampled_report


def test_csv_rows_reproduce_the_fidelities_exactly(sampled_report, tmp_path):
    # a QPT row also gives the repeat's average gate fidelity, computed from its fidelity
    path = emit_report(sampled_report, "csv", tmp_path / "r.csv")
    header, *rows = list(csv.reader(path.open(newline="")))
    qpt = sampled_report.kind == "qpt"
    assert header == ["repeat", "fidelity"] + (["average_gate_fidelity"] if qpt else [])
    assert [int(row[0]) for row in rows] == list(range(3))
    assert tuple(float(row[1]) for row in rows) == sampled_report.fidelities
    assert [row[1] for row in rows] == [repr(f) for f in sampled_report.fidelities]
    if qpt:
        assert [row[2] for row in rows] == [repr(average_gate_fidelity(f, 3))
                                            for f in sampled_report.fidelities]
    else:
        assert all(len(row) == 2 for row in rows)


@pytest.mark.parametrize("version", [0, 5, "1", None, True, 1.0])
def test_load_report_rejects_unknown_schema_version(report_file, version):
    payload = json.loads(report_file.read_text())
    payload["schema_version"] = version
    report_file.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="schema_version"):
        load_report(report_file)


def test_cli_report_exit_codes(report_file, capsys):
    assert cli.main(["report", str(report_file)]) == 0
    payload = json.loads(report_file.read_text())
    payload["schema_version"] = 5
    report_file.write_text(json.dumps(payload))
    assert cli.main(["report", str(report_file)]) == 3
    assert "schema_version" in capsys.readouterr().err


def test_cli_report_prints_the_mean_average_gate_fidelity_of_qpt_only(sampled_report,
                                                                       tmp_path, capsys):
    path = emit_report(sampled_report, "json", tmp_path / "r.json")
    assert cli.main(["report", str(path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("mean avg gate F:")]
    if sampled_report.kind == "qpt":
        agf = [average_gate_fidelity(f, 3) for f in sampled_report.fidelities]
        assert lines == [f"mean avg gate F: {sum(agf) / len(agf):.5f}"]
    else:
        assert lines == []


def test_report_to_dict_gives_what_asdict_gives(sampled_report):
    # dataclasses.asdict is the oracle: the same dict, field by field and type by type, and
    # byte-identical JSON
    payload = experiments.report_to_dict(sampled_report)
    oracle = dataclasses.asdict(sampled_report)
    assert payload == oracle
    assert [(k, type(v)) for k, v in payload.items()] == [(k, type(v)) for k, v in oracle.items()]
    assert json.dumps(payload, indent=2) == json.dumps(oracle, indent=2)
    assert json.dumps(payload) == json.dumps(oracle)


def test_mutating_report_to_dicts_nested_dicts_leaves_the_report_unchanged(sampled_report):
    before = dataclasses.asdict(sampled_report)
    payload = experiments.report_to_dict(sampled_report)
    nested = [value for value in payload.values() if isinstance(value, dict)]
    assert len(nested) == 2
    for value in nested:
        value["added"] = 1
        del value[next(iter(value))]
    assert dataclasses.asdict(sampled_report) == before
    assert experiments.report_to_dict(sampled_report) == before


def _older_layout(report, version):
    """``report`` as layout 1, 2 or 3 saved it, with the fields that layout had."""
    qst = report.kind == "qst"
    payload = experiments.report_to_dict(report)
    payload["schema_version"] = version
    # layouts 1 to 3 stored the mean and sd, the job count and the total as well
    mean, std = experiments._mean_sd(report.fidelities)
    jobs = {"qst": 27, "qpt": 1728}[report.kind]
    payload.update(mean_fidelity=mean, std_fidelity=std, num_jobs=jobs,
                   total_measurements=jobs * report.config.shots_per_setting)
    if version == 3:
        return payload
    payload["average_gate_fidelities"] = \
        None if qst else [average_gate_fidelity(f, 3) for f in report.fidelities]
    state = report.config.input_state.value
    payload["hardware_reference"] = {state: HARDWARE_REFERENCE_FIDELITY[state]} if qst else None
    if version == 1:
        # None for state tomography, and for process tomography the last repeat's raw TP
        # deviation, round-off by construction
        payload["tp_deviation_raw"] = None if qst else 7.6e-16
    return payload


def _cli_report(path, capsys, *flags):
    assert cli.main(["report", *map(str, (path, *flags))]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("version", [1, 2, 3])
def test_an_older_layout_loads_as_the_same_report_at_version_4(sampled_report, version,
                                                               tmp_path, capsys):
    current = emit_report(sampled_report, "json", tmp_path / "v4.json")
    assert json.loads(current.read_text())["schema_version"] == 4
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(_older_layout(sampled_report, version)))
    assert load_report(path) == sampled_report
    assert _cli_report(path, capsys) == _cli_report(current, capsys)
    _cli_report(path, capsys, "--out", tmp_path / "old.csv")
    _cli_report(current, capsys, "--out", tmp_path / "new.csv")
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def test_a_version_2_qpt_report_with_fewer_stored_gate_fidelities_converts(tmp_path, capsys):
    # the CSV column is computed from the fidelities; a stored list one short of them was
    # an IndexError
    report = run_qpt_experiment(_config(repeats=2, shots_per_setting=300))
    payload = _older_layout(report, 2)
    payload["average_gate_fidelities"] = payload["average_gate_fidelities"][:1]
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(payload))
    _cli_report(path, capsys, "--out", tmp_path / "r.csv")
    header, *rows = list(csv.reader((tmp_path / "r.csv").open(newline="")))
    assert header == ["repeat", "fidelity", "average_gate_fidelity"]
    assert rows == [[str(i), repr(f), repr(average_gate_fidelity(f, 3))]
                    for i, f in enumerate(report.fidelities)]


@pytest.mark.parametrize("state", [s.value for s in StateKind])
def test_cli_report_prints_the_hardware_reference_of_a_qst_input(state, tmp_path, capsys):
    report = run_qst_experiment(_config(state=state, exact=True, repeats=1))
    out = _cli_report(emit_report(report, "json", tmp_path / "r.json"), capsys)
    assert out.splitlines()[-1] == (f"hardware ref:    {state} "
                                    f"{HARDWARE_REFERENCE_FIDELITY[state]:.5f} "
                                    "(published single-run value)")


@pytest.mark.parametrize("state", [s.value for s in StateKind])
def test_cli_report_prints_no_hardware_reference_for_qpt(report_file, state, capsys):
    # a QPT run prepares no input state, whatever its config's input_state says; its job
    # count is its kind's, and the run is exact, so it drew no shots
    _edited(report_file, lambda p: (p.update(kind="qpt"), p["config"].update(input_state=state)))
    out = _cli_report(report_file, capsys)
    assert "hardware ref" not in out
    assert "jobs:            1728 (exact probabilities, no shots drawn)\n" in out
    assert "jobs x shots" not in out


def test_a_report_with_no_fidelities_is_a_schema_error(report_file, capsys):
    # it loaded, and ccxlab report printed "repeats: 0" next to the stored mean fidelity
    payload = json.loads(report_file.read_text())
    payload["fidelities"] = []
    report_file.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="at least one fidelity") as error:
        load_report(report_file)
    assert error.value.exit_code == 3
    assert cli.main(["report", str(report_file)]) == 3
    assert capsys.readouterr().err.startswith("error[schema]: ")


def _edited(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("fidelity", [1.5, -0.25])
def test_a_report_with_a_fidelity_outside_the_unit_interval_is_a_schema_error(
        report_file, capsys, fidelity):
    _edited(report_file, lambda payload: payload.update(fidelities=[fidelity]))
    with pytest.raises(SchemaError, match=rf"fidelity {fidelity} outside \[0, 1\]") as error:
        load_report(report_file)
    assert (error.value.category, error.value.exit_code) == ("schema", 3)
    assert cli.main(["report", str(report_file)]) == 3
    assert capsys.readouterr().err.startswith(f"error[schema]: {report_file}: not a valid report")


def test_a_report_that_is_not_json_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="not valid JSON") as error:
        load_report(path)
    assert (error.value.category, error.value.exit_code) == ("schema", 3)
    assert cli.main(["report", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error[schema]: {path}: not valid JSON")


def test_a_report_that_is_not_utf8_is_a_schema_error(tmp_path, capsys):
    # undecodable bytes used to end in a UnicodeDecodeError traceback, exit 1
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff\xfe\xfa")
    with pytest.raises(SchemaError, match="not valid JSON") as error:
        load_report(path)
    assert (error.value.category, error.value.exit_code) == ("schema", 3)
    assert cli.main(["report", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error[schema]: {path}: not valid JSON")


@pytest.mark.parametrize("fmt", ["xml", "", "tsv"])
def test_an_unknown_report_format_is_a_usage_error(report_file, tmp_path, fmt):
    # the CLI's --format takes json or csv only, so argparse rejects any other first
    target = tmp_path / "r.out"
    with pytest.raises(UsageError, match=rf"^unknown report format {fmt!r} \(json or csv\)$") \
            as error:
        emit_report(load_report(report_file), fmt, target)
    assert (error.value.category, error.value.exit_code) == ("usage", 2)
    assert not target.exists()


@pytest.fixture
def two_repeat_report(tmp_path):
    """A saved QST report of two sampled repeats at 200 shots per setting."""
    report = run_qst_experiment(_config(repeats=2, shots_per_setting=200))
    assert report.fidelities[0] != report.fidelities[1]
    return emit_report(report, "json", tmp_path / "report.json")


#: stands for a config field deleted from the echo
_DELETED = object()


def _config_edit(name, value):
    """An edit of the config echo's ``name`` to ``value``, or its deletion."""
    def edit(payload):
        if value is _DELETED:
            del payload["config"][name]
        else:
            payload["config"][name] = value
    return edit


#: per report field, edits that make its value disagree with the rest of the report
_DISAGREEING = [
    ("kind", lambda p: p.update(kind="xyz")),
    ("kind", lambda p: p.update(kind="QST")),
    ("config", _config_edit("shots_per_setting", 0)),
    ("config", _config_edit("shots_per_setting", "200")),
    ("config", _config_edit("shots_per_setting", 200.0)),
    ("config", _config_edit("shots_per_setting", True)),
    ("config", _config_edit("shots_per_setting", _DELETED)),
    ("config.repeats", _config_edit("repeats", 7)),
    ("config.repeats", _config_edit("repeats", 1)),
    ("gate_counts", lambda p: p["gate_counts"].update(circuit_depth=-1)),
]


@pytest.mark.parametrize("field, edit", _DISAGREEING,
                         ids=[f"{field}-{i}" for i, (field, _) in enumerate(_DISAGREEING)])
def test_a_report_field_that_disagrees_with_the_rest_is_a_schema_error(two_repeat_report,
                                                                       capsys, field, edit):
    # such a report loaded, and ccxlab report printed "kind: xyz" or "repeats: 2" next to an
    # echo of 7 repeats
    _edited(two_repeat_report, edit)
    with pytest.raises(SchemaError, match=f"field '{field}' must be ") as error:
        load_report(two_repeat_report)
    assert (error.value.category, error.value.exit_code) == ("schema", 3)
    assert cli.main(["report", str(two_repeat_report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[schema]: {two_repeat_report}: not a valid report "
                                   f"(field '{field}' must be ")


def test_an_edited_report_exits_3_naming_its_first_disagreeing_field(two_repeat_report, capsys):
    _edited(two_repeat_report, lambda p: (p.update(kind="xyz"), p["config"].update(repeats=7),
                                          p["gate_counts"].update(circuit_depth=-1)))
    assert cli.main(["report", str(two_repeat_report)]) == 3
    assert "(field 'kind' must be 'qst' or 'qpt', got 'xyz')" in capsys.readouterr().err


def test_a_report_whose_repeats_differ_from_its_fidelity_count_names_both(two_repeat_report,
                                                                         capsys):
    # it loaded, and ccxlab report exited 0 printing "repeats: 2"
    _edited(two_repeat_report, _config_edit("repeats", 7))
    assert cli.main(["report", str(two_repeat_report)]) == 3
    assert capsys.readouterr().err == (
        f"error[schema]: {two_repeat_report}: not a valid report "
        "(field 'config.repeats' must be 2, the fidelity count, got 7)\n")


@pytest.mark.parametrize("name, value", [
    ("mode", "XYZ"), ("mode", None), ("input_state", "BASIS"), ("input_state", ["GHZ"]),
    ("input_state", None), ("input_state", "ghz"), ("strategy", "X"), ("master_seed", -1),
    ("repeats", 0), ("exact_probabilities", 1), ("noise_scale", 2.0),
    ("shots_per_setting", _DELETED), ("master_seed", _DELETED)])
def test_a_config_echo_its_config_rejects_is_a_schema_error_naming_the_field(
        two_repeat_report, capsys, name, value):
    # the echo was not checked: an unknown enum value loaded, and ccxlab report exited 0;
    # now ExperimentConfig checks it as it checks a run's
    _edited(two_repeat_report, _config_edit(name, value))
    with pytest.raises(SchemaError, match=r"field 'config' must ") as error:
        load_report(two_repeat_report)
    assert name in str(error.value)
    assert error.value.exit_code == 3
    assert cli.main(["report", str(two_repeat_report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[schema]: {two_repeat_report}: not a valid report "
                                   "(field 'config' must ")
    assert name in captured.err


@pytest.mark.parametrize("config", [[], "GHZ", 5])
def test_a_config_echo_that_is_not_an_object_is_a_schema_error(two_repeat_report, config):
    _edited(two_repeat_report, lambda p: p.update(config=config))
    with pytest.raises(SchemaError, match=r"\(field 'config' must be a valid config echo \("):
        load_report(two_repeat_report)


def test_a_noise_aware_echo_with_a_calibration_path_that_is_not_a_path_exits_3(tmp_path,
                                                                             capsys):
    report = run_qst_experiment(_config("NOISE_AWARE", exact=True, repeats=1))
    path = _edited(emit_report(report, "json", tmp_path / "r.json"),
                   _config_edit("calibration_path", 5))
    assert cli.main(["report", str(path)]) == 3
    assert "calibration_path must be None, a str or an os.PathLike, got 5" \
        in capsys.readouterr().err


def test_a_version_3_report_with_edited_derived_values_prints_its_fidelities_own(
        two_repeat_report, tmp_path, capsys):
    # layout 3 stored the mean, sd, jobs and total; they are dropped unread, so an edit to
    # them changes nothing that loads or prints
    report = load_report(two_repeat_report)
    payload = _older_layout(report, 3)
    payload.update(mean_fidelity=5.0, std_fidelity=-1.0, num_jobs=-3, total_measurements=7)
    path = tmp_path / "v3.json"
    path.write_text(json.dumps(payload))
    assert load_report(path) == report
    mean, std = experiments._mean_sd(report.fidelities)
    out = _cli_report(path, capsys)
    assert out == _cli_report(two_repeat_report, capsys)
    assert f"mean fidelity:   {mean:.5f}\n" in out and f"std fidelity:    {std:.5f}\n" in out
    assert "jobs x shots:    27 x 200 = 5400\n" in out


def test_a_report_stores_no_derived_value(two_repeat_report):
    payload = json.loads(two_repeat_report.read_text())
    assert list(payload) == ["schema_version", "kind", "fidelities", "gate_counts", "config",
                             "tool_version", "wall_seconds", "created_at"]
    report = load_report(two_repeat_report)
    assert isinstance(report.config, ExperimentConfig) and report.num_jobs == 27
