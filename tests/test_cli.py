"""CLI exit codes: 0 on success; bad arguments print ``error[usage]: ...`` and exit 2,
bad files ``error[schema]: ...`` and exit 3, never a traceback."""

import pytest

from ccxlab import cli
from ccxlab.circuits import Circuit, serialize_circuit
from ccxlab.gates import x
from ccxlab.synthesis import DecompositionStrategy


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--controls", "0,0"], ["--controls", "a,b"],
                                   ["--target", "-1"]])
def test_synth_with_bad_qubits_is_a_run(flags, capsys):
    code, err = _run(["synth", "--strategy", "ECR_NATIVE", *flags], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ")


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
def test_simulate_with_negative_shots_is_a_run(tmp_path, capsys, noise):
    path = tmp_path / "circuit.txt"
    path.write_text(serialize_circuit(Circuit(3, (x(0),))))
    code, err = _run(["simulate", str(path), "--shots", "-5", *noise], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ")


@pytest.mark.parametrize("noise", [[], ["--noise", "builtin:brisbane_median"]])
@pytest.mark.parametrize("text", ["qubits 7\n", "qubits 1\nH q[0]\n"])
def test_simulate_of_a_circuit_too_wide_or_not_native_is_a_usage_error(tmp_path, capsys, text,
                                                                       noise):
    path = tmp_path / "circuit.txt"
    path.write_text(text)
    code, err = _run(["simulate", str(path), *noise], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ")


@pytest.mark.parametrize("command", [["qst"], ["qpt", "--accept-job-budget"]])
def test_negative_seed_is_a_usage_error(command, capsys):
    code, err = _run([*command, "--seed", "-1", "--repeats", "1", "--shots", "10"], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ") and "master_seed" in err


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


def test_qpt_without_job_budget_is_a_usage_error(capsys):
    code, err = _run(["qpt", "--repeats", "1", "--shots", "10"], capsys)
    assert code == 2
    assert err.startswith("error[usage]: ") and "--accept-job-budget" in err


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


@pytest.mark.parametrize("strategy", [s.value for s in DecompositionStrategy])
def test_synth_with_each_strategy_exits_zero(strategy, capsys):
    code, err = _run(["synth", "--strategy", strategy], capsys)
    assert code == 0 and err == ""


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
