"""End-to-end experiment runs, their determinism, and report files."""

import itertools
import json
from collections import Counter

import numpy as np
import pytest

from ccxlab import cli, experiments, simulator, tomography
from ccxlab.calibration import builtin_calibration_path
from ccxlab.circuits import Circuit, serialize_circuit
from ccxlab.errors import SchemaError
from ccxlab.experiments import (
    DEFAULT_CONTROLS,
    DEFAULT_TARGET,
    ExperimentConfig,
    emit_report,
    load_report,
    run_qpt_experiment,
    run_qst_experiment,
)
from ccxlab.gates import sx, x
from ccxlab.noise import NOISELESS
from ccxlab.states import PROBE_LABELS, StateKind, prepare_state
from ccxlab.synthesis import decompose_toffoli
from ccxlab.tomography import derive_seed

BRISBANE = str(builtin_calibration_path("brisbane_median"))

#: fidelities of two repeats, master seed 7, ECR_NATIVE, default shots
#: (19000 per QST setting, 11000 per QPT setting); state/mode/sampling -> values
GOLDEN_QST = {
    "GHZ/NOISE_FREE/sampled": (0.9832029673338978, 0.9837257027801501),
    "GHZ/NOISE_FREE/exact": (0.9999999999999997, 0.9999999999999997),
    "GHZ/NOISE_AWARE/sampled": (0.8089356725146196, 0.8089853801169588),
    "GHZ/NOISE_AWARE/exact": (0.8085363137362074, 0.8085363137362074),
    "W/NOISE_FREE/sampled": (0.9821899126754869, 0.985558548808279),
    "W/NOISE_FREE/exact": (1.0, 1.0),
    "W/NOISE_AWARE/sampled": (0.7716237816764138, 0.773391812865497),
    "W/NOISE_AWARE/exact": (0.7729763699351656, 0.7729763699351656),
    "UNIFORM/NOISE_FREE/sampled": (0.9857132199861102, 0.9863174373391905),
    "UNIFORM/NOISE_FREE/exact": (0.9999999999999992, 0.9999999999999992),
    "UNIFORM/NOISE_AWARE/sampled": (0.8464122807017543, 0.847941520467835),
    "UNIFORM/NOISE_AWARE/exact": (0.8457903290684488, 0.8457903290684488),
}
GOLDEN_QPT_NOISE_FREE = {
    "sampled": (0.9905680702117031, 0.9888733491547483),
    "exact": (1.0, 1.0),
}
#: the same under NOISE_AWARE with builtin:brisbane_median and readout confusion on
GOLDEN_QPT_NOISE_AWARE = {
    "sampled": (0.7980440698488499, 0.7970873520731603),
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


@pytest.mark.parametrize("sampling", sorted(GOLDEN_QPT_NOISE_FREE))
def test_qpt_fidelities_match_golden_values(sampling):
    report = run_qpt_experiment(_config(exact=sampling == "exact", shots_per_setting=11000))
    assert report.fidelities == pytest.approx(GOLDEN_QPT_NOISE_FREE[sampling], abs=1e-12)
    assert report.num_jobs == 1728
    assert report.tp_deviation_raw < 1e-10


@pytest.mark.parametrize("sampling", sorted(GOLDEN_QPT_NOISE_AWARE))
def test_noise_aware_qpt_fidelities_match_golden_values(sampling):
    report = run_qpt_experiment(_config("NOISE_AWARE", exact=sampling == "exact",
                                        shots_per_setting=11000))
    assert report.fidelities == pytest.approx(GOLDEN_QPT_NOISE_AWARE[sampling], abs=1e-12)
    assert report.num_jobs == 1728
    assert report.tp_deviation_raw < 1e-10


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
@pytest.mark.parametrize("run, circuits", [(run_qst_experiment, 1), (run_qpt_experiment, 64)])
def test_each_circuit_is_built_and_simulated_once_per_run(monkeypatch, run, circuits, mode,
                                                          repeats):
    # both modes take the one path: noise-free is a run under NOISELESS
    calls = Counter()
    for name in ("prepare_state", "run_density", "readout_map"):
        def counted(*args, _call=getattr(experiments, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    report = run(_config(mode, repeats=repeats, shots_per_setting=1000))
    assert len(report.fidelities) == repeats
    assert calls == {"prepare_state": circuits, "run_density": circuits, "readout_map": 1}


@pytest.mark.parametrize("run", [run_qst_experiment, run_qpt_experiment])
def test_a_second_noise_free_run_compiles_nothing(monkeypatch, run):
    # NOISELESS keeps its compiled gates and the rotation circuits are built once per
    # process, so only the first noise-free run pays for either
    cfg = _config(repeats=1, shots_per_setting=100)
    run(cfg)
    assert cfg.noise_model() is NOISELESS
    compiled = dict(NOISELESS._compiled)
    builds = Counter()
    for module, name in ((simulator, "_gate_superop"), (tomography, "to_native")):
        def counted(*args, _call=getattr(module, name), _name=name):
            builds[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    run(cfg)
    assert builds == Counter()
    assert NOISELESS._compiled == compiled and compiled


@pytest.mark.parametrize("mode", ["NOISE_FREE", "NOISE_AWARE"])
def test_qst_seed_layout(monkeypatch, mode):
    # setting j of repeat r draws from default_rng(derive_seed(master_seed, r, j))
    seen = []

    def captured(frequencies, k):
        seen.append(frequencies)
        return reconstruct(frequencies, k)

    reconstruct = experiments.qst_reconstruct
    monkeypatch.setattr(experiments, "qst_reconstruct", captured)
    cfg = _config(mode, "W", repeats=3, shots_per_setting=1000)
    run_qst_experiment(cfg)
    toffoli = decompose_toffoli(cfg.strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    circuit = prepare_state(cfg.input_state).concat(toffoli)
    table = experiments._distributions([circuit], cfg.noise_model(), cfg.apply_readout)[0]
    assert len(seen) == 3
    for r, frequencies in enumerate(seen):
        expected = [np.random.default_rng(derive_seed(cfg.master_seed, r, j))
                    .multinomial(cfg.shots_per_setting, p) / cfg.shots_per_setting
                    for j, p in enumerate(table)]
        assert np.array_equal(frequencies, expected)


def test_qpt_seed_layout(monkeypatch):
    # job i of repeat r, probe-major, draws from default_rng(derive_seed(derive_seed(seed, r), i))
    seen = []

    def captured(frequencies, k):
        seen.append(frequencies)
        return reconstruct(frequencies, k)

    reconstruct = experiments.qpt_reconstruct_full
    monkeypatch.setattr(experiments, "qpt_reconstruct_full", captured)
    cfg = _config(repeats=2, shots_per_setting=1000)
    run_qpt_experiment(cfg)
    toffoli = decompose_toffoli(cfg.strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    circuits = [prepare_state(StateKind.PROBE, probe=probe).concat(toffoli)
                for probe in itertools.product(PROBE_LABELS, repeat=3)]
    table = experiments._distributions(circuits, cfg.noise_model(),
                                        cfg.apply_readout).reshape(-1, 8)
    assert len(seen) == 2
    for r, frequencies in enumerate(seen):
        repeat_seed = derive_seed(cfg.master_seed, r)
        expected = [np.random.default_rng(derive_seed(repeat_seed, i))
                    .multinomial(cfg.shots_per_setting, p) / cfg.shots_per_setting
                    for i, p in enumerate(table)]
        assert np.array_equal(frequencies, np.reshape(expected, (64, 27, 8)))


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


# -- report files -----------------------------------------------------------------

@pytest.fixture
def report_file(tmp_path):
    report = run_qst_experiment(_config(exact=True, repeats=1))
    return emit_report(report, "json", tmp_path / "report.json")


def test_report_round_trip(report_file, tmp_path):
    again = emit_report(load_report(report_file), "json", tmp_path / "again.json")
    assert again.read_text() == report_file.read_text()


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_load_report_rejects_unknown_schema_version(report_file, version):
    payload = json.loads(report_file.read_text())
    payload["schema_version"] = version
    report_file.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="schema_version"):
        load_report(report_file)


def test_cli_report_exit_codes(report_file, capsys):
    assert cli.main(["report", str(report_file)]) == 0
    payload = json.loads(report_file.read_text())
    payload["schema_version"] = 2
    report_file.write_text(json.dumps(payload))
    assert cli.main(["report", str(report_file)]) == 3
    assert "schema_version" in capsys.readouterr().err
