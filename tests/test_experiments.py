"""End-to-end experiment runs, their determinism, and report files."""

import json
from collections import Counter

import pytest

from ccxlab import cli, experiments
from ccxlab.calibration import builtin_calibration_path
from ccxlab.errors import SchemaError
from ccxlab.experiments import (
    ExperimentConfig,
    emit_report,
    load_report,
    run_qpt_experiment,
    run_qst_experiment,
)

BRISBANE = str(builtin_calibration_path("brisbane_median"))

#: fidelities of two repeats, master seed 7, ECR_NATIVE, default shots
#: (19000 per QST setting, 11000 per QPT setting); state/mode/sampling -> values
GOLDEN_QST = {
    "GHZ/NOISE_FREE/sampled": (0.9848198828944409, 0.9871921840449496),
    "GHZ/NOISE_FREE/exact": (0.9999999999999997, 0.9999999999999997),
    "GHZ/NOISE_AWARE/sampled": (0.8089356725146196, 0.8089853801169588),
    "GHZ/NOISE_AWARE/exact": (0.8085363137362074, 0.8085363137362074),
    "W/NOISE_FREE/sampled": (0.9833773212962614, 0.9841769695737702),
    "W/NOISE_FREE/exact": (1.0, 1.0),
    "W/NOISE_AWARE/sampled": (0.7716237816764138, 0.773391812865497),
    "W/NOISE_AWARE/exact": (0.7729763699351656, 0.7729763699351656),
    "UNIFORM/NOISE_FREE/sampled": (0.9847013362494266, 0.9847686672264971),
    "UNIFORM/NOISE_FREE/exact": (0.9999999999999992, 0.9999999999999992),
    "UNIFORM/NOISE_AWARE/sampled": (0.8464122807017543, 0.847941520467835),
    "UNIFORM/NOISE_AWARE/exact": (0.8457903290684488, 0.8457903290684488),
}
GOLDEN_QPT_NOISE_FREE = {
    "sampled": (0.9911777860927103, 0.9905486621046893),
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
    calls = Counter()
    for name in ("prepare_state", "run_statevector", "run_density", "readout_map"):
        def counted(*args, _call=getattr(experiments, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    report = run(_config(mode, repeats=repeats, shots_per_setting=1000))
    assert len(report.fidelities) == repeats
    simulate = "run_statevector" if mode == "NOISE_FREE" else "run_density"
    expected = {"prepare_state": circuits, simulate: circuits}
    if mode == "NOISE_AWARE":
        expected["readout_map"] = 1
    assert calls == expected


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
