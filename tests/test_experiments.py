"""End-to-end experiment runs, their determinism, and report files."""

import csv
import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ccxlab import cli, experiments, simulator, states, tomography
from ccxlab.calibration import builtin_calibration_path
from ccxlab.circuits import Circuit, circuit_unitary, serialize_circuit
from ccxlab.errors import IoError, SchemaError, UsageError
from ccxlab.experiments import (
    DEFAULT_CONTROLS,
    DEFAULT_TARGET,
    ExperimentConfig,
    Mode,
    emit_report,
    load_report,
    run_qpt_experiment,
    run_qst_experiment,
)
from ccxlab.gates import GateDef, ecr, rz, sx, x
from ccxlab.noise import NOISELESS
from ccxlab.qmath import state_fidelity
from ccxlab.states import PROBE_LABELS, StateKind, prepare_state, probe_circuit, target_state
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli, toffoli_unitary
from ccxlab.tomography import qst_reconstruct

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


@pytest.fixture
def fresh_noiseless():
    """``NOISELESS`` with an empty compiled cache for one test; its own cache is back after it.

    A model keeps every exact table it computed, and ``NOISELESS`` lives for the whole
    process, so a test that counts what a first noise-free run computes starts it empty,
    whatever ran before.
    """
    saved = dict(NOISELESS._compiled)
    NOISELESS._compiled.clear()
    yield NOISELESS
    NOISELESS._compiled.clear()
    NOISELESS._compiled.update(saved)


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run, circuits", [(run_qst_experiment, 1), (run_qpt_experiment, 64)])
def test_each_circuit_is_built_and_simulated_once_per_run(monkeypatch, fresh_noiseless, run,
                                                          circuits, mode, repeats):
    # both modes take the one path: noise-free is a run under NOISELESS, here with an empty
    # cache, so this is a first run. One run_density evolves the Toffoli once, on the whole
    # stack of prepared states. QST builds its input with prepare_state and evolves it whole
    # with one more run_density; QPT builds its 4 one-qubit probe letters with probe_circuit,
    # and product_states evolves each (wire, letter) once, on that wire alone, into the
    # 4^3 = 64 probe states
    calls = Counter()
    for module, name, key in ((experiments, "prepare_state", "preparation"),
                              (experiments, "probe_circuit", "preparation"),
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
        assert calls == {"preparation": circuits, "run_density": circuits + 1,
                         "apply_circuit_density": circuits + 1, "readout_map": 1}
    else:
        assert len(PROBE_LABELS) ** 3 == circuits
        assert calls == {"preparation": len(PROBE_LABELS), "product_states": 1,
                         "probe wire evolution": 12,
                         "run_density": 1, "apply_circuit_density": 1, "readout_map": 1}


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
def test_a_qpt_run_applies_the_toffoli_once_to_all_preparations(monkeypatch, fresh_noiseless,
                                                                mode):
    # in a first run, each fused block of the Toffoli (an ECR with the one-qubit gates around
    # it) acts once, as a three-qubit superoperator, on the stack of all 64 probe states: 8
    # products for the 44 gates of ECR_NATIVE. No three-qubit superoperator acts on a single
    # probe, whose gates run per wire, and the readout map is built per wire as well
    stacks = []

    def apply(vecs, *args, _call=simulator._apply_superop):
        stacks.append(vecs.shape)
        return _call(vecs, *args)

    monkeypatch.setattr(simulator, "_apply_superop", apply)
    cfg = _config(mode, repeats=1, shots_per_setting=100)
    run_qpt_experiment(cfg)
    toffoli = decompose_toffoli(cfg.strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    assert len(toffoli.gates) == 44 and len(simulator._blocks(toffoli)) == 8
    assert stacks == [(64, 64)] * 8


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_second_noise_free_run_compiles_nothing(monkeypatch, run):
    # NOISELESS keeps its gate channels and the run's exact table, and the rotation and
    # probe circuits are built once per process, so only the first noise-free run pays for
    # any of them: a second one compiles, evolves, prepares and reads out nothing. A probe
    # build starts with states.probe_state, which runs call nowhere else.
    cfg = _config(repeats=1, shots_per_setting=100)
    first = run(cfg)
    assert cfg.noise_model() is NOISELESS
    compiled = dict(NOISELESS._compiled)
    builds = Counter()
    for module, name in ((simulator, "_gate_superop"), (simulator, "_block_channel"),
                         (tomography, "to_native"), (states, "probe_state"),
                         (experiments, "run_density"), (experiments, "product_states"),
                         (experiments, "readout_map"), (experiments, "_distributions")):
        def counted(*args, _call=getattr(module, name), _name=name):
            builds[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    assert run(cfg).fidelities == first.fidelities
    assert builds == Counter()
    assert NOISELESS._compiled == compiled and compiled


def _assert_caches_only(nm, kinds):
    """Every key in ``nm``'s compiled cache is a ``kinds`` entry: ("channel", gate) or
    ("table", strategy, preparations)."""
    assert nm._compiled
    for key in nm._compiled:
        assert key[0] in kinds, key
        if key[0] == "channel":
            assert len(key) == 2 and isinstance(key[1], GateDef)
        else:
            assert len(key) == 3 and isinstance(key[1], DecompositionStrategy)


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_model_caches_only_gate_channels_and_tables(monkeypatch, fresh_noiseless, run, mode):
    # the per-model table memo already spares a warm run its blocks and readout map, so a
    # model keeps nothing else: no circuit's blocks, no readout map, no state
    models = []

    def captured(cfg, nm, *args, _call=experiments._run):
        models.append(nm)
        return _call(cfg, nm, *args)

    monkeypatch.setattr(experiments, "_run", captured)
    run(_config(mode, repeats=1, shots_per_setting=100))
    (nm,) = models
    assert (nm is NOISELESS) == (mode == "NOISE_FREE")
    _assert_caches_only(nm, ("channel", "table"))
    assert sum(key[0] == "table" for key in nm._compiled) == 1


def test_running_many_circuits_caches_only_their_gate_channels(fresh_noiseless):
    # NOISELESS lives as long as the process, so what it caches per circuit would grow
    # without bound over a sweep of distinct circuits; it keeps one channel per distinct gate
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
    _assert_caches_only(NOISELESS, ("channel",))
    assert len(NOISELESS._compiled) == len({g for c in circuits for g in c.gates})


def _counted_tables(monkeypatch):
    """The tables ``experiments._distributions`` computes, in call order."""
    tables = []

    def counted(*args, _call=experiments._distributions):
        tables.append(_call(*args))
        return tables[-1]

    monkeypatch.setattr(experiments, "_distributions", counted)
    return tables


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_model_with_edited_numbers_computes_its_own_table(monkeypatch, run):
    # the table lives in its model's cache: every noise-aware run builds a fresh model from
    # the calibration file, so it computes its own table, and one with other numbers scores
    # its own noise
    run(_config(repeats=1, shots_per_setting=100))  # NOISELESS holds its table from here on
    tables = _counted_tables(monkeypatch)
    fidelities = [run(_config("NOISE_AWARE", exact=True, repeats=1, noise_scale=scale))
                  .fidelities for scale in (0.5, 0.5, 1.0)]
    assert len(tables) == 3
    assert np.array_equal(tables[0], tables[1]) and not np.array_equal(tables[1], tables[2])
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
    assert any(value is table for value in NOISELESS._compiled.values())
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
    # the repeats' (64, 27, 8) tables are drawn lazily, so one is held at a time
    events = []
    frequencies, reconstruct = experiments._frequencies, experiments.qpt_reconstruct
    monkeypatch.setattr(experiments, "_frequencies",
                        lambda *args: events.append("draw") or frequencies(*args))
    monkeypatch.setattr(experiments, "qpt_reconstruct",
                        lambda *args: events.append("reconstruct") or reconstruct(*args))
    run_qpt_experiment(_config(repeats=3, shots_per_setting=100))
    assert events == ["draw", "reconstruct"] * 3


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


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
def test_qst_seed_layout(monkeypatch, mode):
    # repeat r draws the whole (1, 27, 8) table from one generator seeded (master_seed, r);
    # one estimator call reconstructs the repeats' tables, stacked in repeat order
    seen = _captured(monkeypatch, "qst_reconstruct")
    cfg = _config(mode, "W", repeats=3, shots_per_setting=1000)
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
    with pytest.raises(IoError, match="cannot write report") as info:
        emit_report(report, fmt, tmp_path / "missing" / f"report.{fmt}")
    assert info.value.exit_code == 3
    with pytest.raises(IoError, match="cannot read report") as info:
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
    path = emit_report(sampled_report, "csv", tmp_path / "r.csv")
    header, *rows = list(csv.reader(path.open(newline="")))
    agf = sampled_report.average_gate_fidelities
    assert header == ["repeat", "fidelity"] + (["average_gate_fidelity"] if agf else [])
    assert [int(row[0]) for row in rows] == list(range(3))
    assert tuple(float(row[1]) for row in rows) == sampled_report.fidelities
    assert [row[1] for row in rows] == [repr(f) for f in sampled_report.fidelities]
    if agf is not None:
        assert tuple(float(row[2]) for row in rows) == agf
    else:
        assert all(len(row) == 2 for row in rows)


@pytest.mark.parametrize("version", [0, 3, "1", None, True, 1.0])
def test_load_report_rejects_unknown_schema_version(report_file, version):
    payload = json.loads(report_file.read_text())
    payload["schema_version"] = version
    report_file.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="schema_version"):
        load_report(report_file)


def test_cli_report_exit_codes(report_file, capsys):
    assert cli.main(["report", str(report_file)]) == 0
    payload = json.loads(report_file.read_text())
    payload["schema_version"] = 3
    report_file.write_text(json.dumps(payload))
    assert cli.main(["report", str(report_file)]) == 3
    assert "schema_version" in capsys.readouterr().err


def test_a_version_1_report_loads_as_the_same_report_at_version_2(sampled_report, tmp_path,
                                                                 capsys):
    # layout 1 also carried tp_deviation_raw: None for state tomography, and for process
    # tomography the last repeat's raw TP deviation, round-off by construction
    payload = experiments.report_to_dict(sampled_report)
    assert payload["schema_version"] == 2
    payload["schema_version"] = 1
    payload["tp_deviation_raw"] = None if sampled_report.kind == "qst" else 7.6e-16
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    assert load_report(path) == sampled_report
    assert cli.main(["report", str(path)]) == 0
    assert "mean fidelity" in capsys.readouterr().out
