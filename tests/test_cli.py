"""CLI exit codes: 0 on success; bad arguments print ``error[usage]: ...`` and exit 2,
bad files ``error[schema]: ...`` and exit 3, never a traceback."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccxlab
from ccxlab import cli
from ccxlab.circuits import Circuit, serialize_circuit
from ccxlab.experiments import Report
from ccxlab.gates import x
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli
from ccxlab.version import __version__


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def test_python_dash_m_ccxlab_runs_the_cli_without_an_install():
    # only the source tree on the path, as in a checkout without pip install .
    path = [str(Path(ccxlab.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-m", "ccxlab", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"ccxlab {__version__}\n", "")


@pytest.mark.parametrize("flags", [["--controls", "0,0"], ["--controls", "a,b"],
                                   ["--target", "-1"]])
def test_synth_with_bad_qubits_is_a_run(flags, capsys):
    code, err = _run(["synth", "--strategy", "ECR_NATIVE", *flags], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ")


#: more shots than numpy draws as int64 counts; 2**63 - 1 shots still run
TOO_MANY_SHOTS = "10000000000000000000"


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
@pytest.mark.parametrize("shots", ["-5", TOO_MANY_SHOTS])
def test_simulate_with_shots_out_of_range_is_a_usage_error(tmp_path, capsys, shots, noise):
    path = tmp_path / "circuit.txt"
    path.write_text(serialize_circuit(Circuit(3, (x(0),))))
    code, err = _run(["simulate", str(path), "--shots", shots, *noise], capsys)
    assert code == 2
    assert err.startswith("error[usage]: --shots must be positive and at most ")


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
@pytest.mark.parametrize("text", ["qubits 7\n", "qubits 1\nH q[0]\n"])
def test_simulate_of_a_circuit_too_wide_or_not_native_is_a_usage_error(tmp_path, capsys, text,
                                                                       noise):
    path = tmp_path / "circuit.txt"
    path.write_text(text)
    code, err = _run(["simulate", str(path), *noise], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ")


@pytest.mark.parametrize("command", [["qst"], ["qpt"]])
@pytest.mark.parametrize("flags, field", [(["--seed", "-1", "--shots", "10"], "master_seed"),
                                          (["--shots", TOO_MANY_SHOTS], "shots_per_setting")])
def test_negative_seed_or_too_many_shots_is_a_usage_error(command, flags, field, capsys):
    code, err = _run([*command, *flags, "--repeats", "1"], capsys)
    assert code == 2
    assert err.startswith(f"error[usage]: {field} must be ")


@pytest.mark.parametrize("argv", [["simulate", "{dir}"], ["calib-summary", "{dir}"],
                                  ["qst", "--noise", "{dir}", "--repeats", "1"],
                                  ["simulate", "{dir}/missing.txt"],
                                  ["report", "{dir}/missing.json"], ["report", "{dir}"],
                                  ["synth", "--strategy", "ECR_NATIVE", "--out", "{dir}"]])
def test_unreadable_or_unwritable_user_file_is_a_schema_error(argv, tmp_path, capsys):
    code, err = _run([arg.format(dir=tmp_path) for arg in argv], capsys)
    assert code == 3
    assert err.startswith("error[schema]: ") and str(tmp_path) in err


@pytest.mark.parametrize("flags", [["--noise-scale", "3"], ["--no-readout-error"]])
def test_noise_options_without_noise_are_a_usage_error(flags, capsys):
    code, err = _run(["qst", "--repeats", "1", "--shots", "10", *flags], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ") and "NOISE_AWARE" in err


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
def test_simulate_with_negative_seed_is_a_usage_error(tmp_path, capsys, noise):
    path = tmp_path / "circuit.txt"
    path.write_text(serialize_circuit(Circuit(3, (x(0),))))
    code, err = _run(["simulate", str(path), "--shots", "10", "--seed", "-1", *noise], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ") and "--seed" in err


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-0.5"])
def test_noise_scale_that_is_not_finite_and_nonnegative_is_a_usage_error(scale, capsys):
    code, err = _run(["qst", "--noise", "builtin:brisbane_median", f"--noise-scale={scale}",
                      "--repeats", "1", "--shots", "10"], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ") and "noise_scale" in err


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
@pytest.mark.parametrize("command", [["qst"], ["qpt"]])
@pytest.mark.parametrize("strategy", [s.value for s in DecompositionStrategy
                                      if s is not DecompositionStrategy.ECR_NATIVE])
def test_tomography_of_a_non_native_strategy_is_a_usage_error(strategy, command, noise, capsys):
    # only ECR_NATIVE is over the native gate set, and both modes run the one native-only
    # simulator, so every other strategy fails with or without noise
    code, err = _run([*command, "--strategy", strategy, "--repeats", "1", "--shots", "10",
                      *noise], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ") and "not in the native set" in err


@pytest.mark.parametrize("strategy", [s.value for s in DecompositionStrategy])
def test_synth_with_each_strategy_exits_zero(strategy, capsys):
    code, err = _run(["synth", "--strategy", strategy], capsys)
    assert code == 0 and err == ""


@pytest.mark.parametrize("strategy, two_qubit", [("FULL_6CNOT", 6), ("LNN_8CNOT", 8),
                                                 ("LNN_9CNOT_RZSX", 9), ("ECR_NATIVE", 8)])
def test_synth_prints_the_circuits_two_qubit_count_and_depth(strategy, two_qubit, capsys):
    assert cli.main(["synth", "--strategy", strategy]) == 0
    summary = json.loads(capsys.readouterr().out)
    circuit = decompose_toffoli(DecompositionStrategy(strategy), (0, 1), 2)
    assert (summary["two_qubit_gates"], summary["depth"]) == (two_qubit, circuit.depth())
    assert summary["equivalent"] is True


def test_report_with_unknown_format_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["report", str(tmp_path / "report.json"), "--format", "xml"])
    assert info.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, '{"qubits": [', '{"qubits": []}'])
def test_calib_summary_of_a_missing_or_malformed_file_is_a_schema_error(text, tmp_path, capsys):
    path = tmp_path / "calibration.json"
    if text is not None:
        path.write_text(text)
    code, err = _run(["calib-summary", str(path)], capsys)
    assert code == 3
    assert err.startswith("error[schema]: ") and str(path) in err


def test_qst_with_a_calibration_that_is_not_json_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "calibration.json"
    path.write_text('{"qubits": [')
    code, err = _run(["qst", "--noise", str(path), "--repeats", "1", "--shots", "10"], capsys)
    assert code == 3
    assert err.startswith("error[schema]: ") and "not valid JSON" in err


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("shots", [[], ["--shots", "100"]])
def test_simulate_with_a_non_finite_gate_parameter_is_a_schema_error(tmp_path, capsys, angle,
                                                                     shots):
    # NaN amplitudes used to print, or reach the sampler and end in numpy's pvals traceback
    path = tmp_path / "circuit.txt"
    path.write_text(f"qubits 1\nRZ({angle}) q[0]\nSX q[0]\n")
    code, err = _run(["simulate", str(path), *shots], capsys)
    assert code == 3
    assert err.startswith("error[schema]: line 2: non-finite parameter")


#: one value of the wrong JSON type for each field of a saved report
_WRONG_TYPES = {
    "schema_version": "2", "kind": 1, "fidelities": "0.5", "mean_fidelity": "x",
    "std_fidelity": None, "gate_counts": {"toffoli_two_qubit": 8.5}, "num_jobs": "27",
    "total_measurements": 1.5, "config": None, "tool_version": 1, "wall_seconds": True,
    "created_at": None,
}


def test_every_report_field_has_a_wrong_typed_value():
    assert list(_WRONG_TYPES) == [f.name for f in dataclasses.fields(Report)]


@pytest.mark.parametrize("field, value", _WRONG_TYPES.items())
def test_report_with_a_field_of_the_wrong_type_is_a_schema_error(field, value, tmp_path, capsys):
    # a wrong-typed value used to reach the report's printing and end in a traceback
    path = tmp_path / "report.json"
    assert cli.main(["qst", "--repeats", "1", "--shots", "10", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    code, err = _run(["report", str(path)], capsys)
    assert code == 3
    assert err.startswith("error[schema]: ") and str(path) in err and field in err
