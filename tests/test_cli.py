"""CLI exit codes: 0 on success; bad arguments print ``error[usage]: ...`` and exit 2,
bad files ``error[schema]: ...`` and exit 3, never a traceback."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ccxlab
from ccxlab import cli
from ccxlab.calibration import BUILTIN_CALIBRATIONS, builtin_calibration_path
from ccxlab.circuits import Circuit, parse_circuit, serialize_circuit
from ccxlab.errors import UsageError
from ccxlab.experiments import (REPORT_SCHEMA_VERSION, ExperimentConfig, Report, emit_report,
                                load_report, run_qst_experiment)
from ccxlab.simulator import MAX_SHOTS
from ccxlab.states import StateKind
from ccxlab.gates import x
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli
from ccxlab.version import __version__


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def _source_env():
    """The environment with only the source tree added to the path, as in a checkout without
    pip install ."""
    path = [str(Path(ccxlab.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def test_python_dash_m_ccxlab_runs_the_cli_without_an_install():
    done = subprocess.run([sys.executable, "-m", "ccxlab", "--version"], env=_source_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"ccxlab {__version__}\n", "")


def test_a_closed_stdout_pipe_ends_the_run_quietly():
    # as in `ccxlab qpt | head -1`; the BrokenPipeError of stdout used to be reported as a
    # schema error, exit 3
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "ccxlab", "synth", "--strategy",
                               "ECR_NATIVE"], env=_source_env(), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


@pytest.mark.parametrize("flags", [["--controls", "0,0"], ["--controls", "a,b"],
                                   ["--target", "-1"], ["--controls", "0,1,3"]])
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
    assert err.startswith("error[usage]: shots must be positive and at most ")


def test_simulate_with_zero_shots_skips_sampling(tmp_path, capsys):
    path = tmp_path / "circuit.txt"
    path.write_text(serialize_circuit(Circuit(3, (x(0),))))
    assert cli.main(["simulate", str(path), "--shots", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "counts" not in out and "shots" not in out


def test_simulate_reports_a_missing_circuit_before_its_shots(tmp_path, capsys):
    # the shots are checked where they are drawn, after the circuit is read and run
    path = tmp_path / "missing.txt"
    code, err = _run(["simulate", str(path), "--shots", "-5"], capsys)
    assert code == 3
    assert err.startswith("error[schema]: ") and str(path) in err


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


@pytest.mark.parametrize("argv, code", [(["qst"], 2), (["qpt"], 2),
                                        (["simulate", "{dir}/circuit.txt"], 3)],
                         ids=["qst", "qpt", "simulate"])
def test_an_empty_noise_argument_is_refused(argv, code, tmp_path, capsys, monkeypatch):
    # it used to run noise-free, as if --noise were not given: a tomography config refuses a
    # noise-aware run without a calibration, and ingest_calibration an empty path
    for name in ("run_qst_experiment", "run_qpt_experiment"):
        monkeypatch.setattr(cli, name, lambda cfg: pytest.fail("an experiment ran"))
    (tmp_path / "circuit.txt").write_text(serialize_circuit(Circuit(3, (x(0),))))
    assert cli.main([arg.format(dir=tmp_path) for arg in argv] + ["--noise", ""]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error[usage]: NOISE_AWARE mode requires a calibration path\n" if code == 2
                   else "error[schema]: calibration path is empty\n")


def test_a_builtin_calibration_is_echoed_as_named_and_runs_as_its_file(tmp_path, capsys):
    # the report keeps what the user gave, not the packaged file's path on this machine, and
    # its config runs again wherever the package is installed
    builtin, resolved = tmp_path / "builtin.json", tmp_path / "resolved.json"
    for path, noise in ((builtin, "builtin:brisbane_median"),
                        (resolved, str(builtin_calibration_path("brisbane_median")))):
        assert cli.main(["qst", "--noise", noise, "--repeats", "2", "--shots", "200",
                         "--out", str(path)]) == 0
    report = load_report(builtin)
    assert report.config.calibration_path == "builtin:brisbane_median"
    fidelities = [f.hex() for f in report.fidelities]
    assert [f.hex() for f in load_report(resolved).fidelities] == fidelities
    assert [f.hex() for f in run_qst_experiment(report.config).fidelities] == fidelities


def test_out_writes_the_format_its_name_ends_in_unless_format_is_given(tmp_path, capsys):
    # the default was JSON for qst and qpt and CSV for report, whatever the file was named
    path = tmp_path / "r.csv"
    assert cli.main(["qst", "--repeats", "2", "--shots", "10", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote csv report to {path}\n"
    assert path.read_text().splitlines()[0] == "repeat,fidelity"
    report = tmp_path / "r.json"
    assert cli.main(["qst", "--repeats", "2", "--shots", "10", "--out", str(report)]) == 0
    for name, flags, fmt in (("copy.json", [], "json"), ("copy", [], "json"),
                             ("copy.CSV", [], "csv"), ("copy.csv", ["--format", "json"], "json")):
        capsys.readouterr()
        assert cli.main(["report", str(report), "--out", str(tmp_path / name), *flags]) == 0
        assert capsys.readouterr().out == f"wrote {fmt} to {tmp_path / name}\n"
        if fmt == "json":
            assert load_report(tmp_path / name) == load_report(report)
        else:
            assert (tmp_path / name).read_text().splitlines()[0] == "repeat,fidelity"


@pytest.mark.parametrize("command", ["qst", "qpt", "report"])
def test_format_without_out_is_a_usage_error(command, tmp_path, capsys):
    # --format was ignored without a word: qst and qpt printed JSON, report its text summary
    argv = ["--repeats", "1", "--shots", "10"]
    if command == "report":
        report = run_qst_experiment(ExperimentConfig(repeats=1, exact_probabilities=True))
        argv = [str(emit_report(report, "json", tmp_path / "r.json"))]
    code = cli.main([command, *argv, "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error[usage]: ") and "--format" in err and "--out" in err


def test_qpt_takes_no_input_state(capsys):
    # qpt prepares its own probes; it took --state, ignored it, and echoed it in its report
    with pytest.raises(SystemExit) as info:
        cli.main(["qpt", "--state", "W", "--repeats", "1", "--shots", "10"])
    assert info.value.code == 2
    assert "--state" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unknown", [(["qpt", "--state", "W"], "--state W"),
                                           (["qst", "--bogus", "1"], "--bogus 1"),
                                           (["report", "r.json", "extra"], "extra")])
def test_an_unknown_flag_prints_its_commands_usage(argv, unknown, capsys):
    # argparse leaves a subcommand's unknown arguments to the top-level parser, whose usage
    # names neither the command nor its flags
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ccxlab {argv[0]} ")
    assert f"ccxlab {argv[0]}: error: unrecognized arguments: {unknown}" in err


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
    assert strategy in err


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


def test_synth_out_writes_the_circuit_it_certifies(tmp_path, capsys):
    path = tmp_path / "toffoli.txt"
    assert cli.main(["synth", "--strategy", "LNN_8CNOT", "--out", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["circuit_file"] == str(path)
    assert parse_circuit(path.read_text()) == decompose_toffoli(DecompositionStrategy.LNN_8CNOT,
                                                                (0, 1), 2)


@pytest.mark.parametrize("command, shots", [("qst", 19000), ("qpt", 11000)])
def test_each_tomography_command_defaults_to_its_papers_shot_count(command, shots, capsys):
    assert cli.build_parser().parse_args([command]).shots_per_setting == shots
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--help"])
    assert info.value.code == 0
    assert f"shots per setting (default {shots})" in capsys.readouterr().out


@pytest.mark.parametrize("command, config", [
    ("qst", ExperimentConfig()), ("qpt", ExperimentConfig(shots_per_setting=11000))])
def test_a_tomography_command_without_flags_runs_the_configs_defaults(command, config):
    # the flags read their defaults off ExperimentConfig; only qpt's shot count is the CLI's own
    assert cli._experiment_config(cli.build_parser().parse_args([command])) == config


def test_qpt_prints_its_report(capsys):
    assert cli.main(["qpt", "--repeats", "1", "--shots", "50"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (payload["kind"], len(payload["fidelities"]), payload["config"]["shots_per_setting"],
            err) == ("qpt", 1, 50, "")


def test_calib_summary_out_writes_the_summary_it_prints(tmp_path, capsys):
    assert cli.main(["calib-summary", "builtin:brisbane_median"]) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "summary.json"
    assert cli.main(["calib-summary", "builtin:brisbane_median", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote summary to {path}\n"
    assert path.read_text() == printed


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


def test_simulate_of_a_circuit_that_is_not_utf8_is_a_schema_error(tmp_path, capsys):
    # undecodable bytes used to end in a UnicodeDecodeError traceback, exit 1
    path = tmp_path / "circuit.txt"
    path.write_bytes(b"qubits 1\nX q[0] # \xff\n")
    code, err = _run(["simulate", str(path)], capsys)
    assert code == 3
    assert err.startswith(f"error[schema]: {path}: not UTF-8 text")


#: one value of the wrong JSON type for each field of a saved report
_WRONG_TYPES = {
    "schema_version": "2", "kind": 1, "fidelities": "0.5",
    "gate_counts": {"toffoli_two_qubit": 8.5}, "config": None, "tool_version": 1,
    "wall_seconds": True, "created_at": None,
}


def test_every_report_field_has_a_wrong_typed_value():
    assert list(_WRONG_TYPES) == [f.name for f in dataclasses.fields(Report)]


#: stands for a field deleted from the report
_MISSING = object()


@pytest.mark.parametrize("field, value", [*_WRONG_TYPES.items(),
                                          *((field, _MISSING) for field in _WRONG_TYPES)])
def test_report_with_a_field_of_the_wrong_type_is_a_schema_error(field, value, tmp_path, capsys):
    # a wrong-typed value used to reach the report's printing and end in a traceback; a
    # missing field fails its type check as None
    path = tmp_path / "report.json"
    assert cli.main(["qst", "--repeats", "1", "--shots", "10", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    if value is _MISSING:
        del payload[field]
    else:
        payload[field] = value
    path.write_text(json.dumps(payload))
    code, err = _run(["report", str(path)], capsys)
    assert code == 3
    assert err.startswith("error[schema]: ") and str(path) in err and field in err


@st.composite
def _experiment_argv(draw):
    """A ``ccxlab qst`` or ``qpt`` command line over every experiment flag; ``--state`` only
    for ``qst``, the one command that takes it, and the noise-aware flags only with
    ``--noise``, since a noise-free run rejects them."""
    argv = [draw(st.sampled_from(["qst", "qpt"]))]
    if argv[0] == "qst":
        argv.append(f"--state={draw(st.sampled_from([k.value for k in StateKind]))}")
    argv += [f"--strategy={draw(st.sampled_from([s.value for s in DecompositionStrategy]))}",
             f"--seed={draw(st.integers(-1, 2 ** 70))}", f"--repeats={draw(st.integers(0, 5))}"]
    shots = draw(st.none() | st.integers(0, MAX_SHOTS + 1))
    argv += [] if shots is None else [f"--shots={shots}"]
    argv += ["--exact-probabilities"] * draw(st.booleans())
    noise = draw(st.none() | st.sampled_from([f"builtin:{name}" for name in BUILTIN_CALIBRATIONS])
                 | st.text(min_size=1, max_size=8))
    if noise is not None:
        argv.append(f"--noise={noise}")
        scale = draw(st.none() | st.floats(min_value=0.0) | st.sampled_from([-1.0, math.nan]))
        argv += [] if scale is None else [f"--noise-scale={scale!r}"]
        argv += ["--no-readout-error"] * draw(st.booleans())
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_experiment_argv(), data=st.data())
def test_every_config_the_cli_builds_saves_and_loads_back_equal(argv, data):
    args = cli.build_parser().parse_args(argv)
    try:
        cfg = cli._experiment_config(args)
    except UsageError:
        assume(False)  # not a config: the CLI exits 2
    fidelities = data.draw(st.lists(st.floats(0.0, 1.0), min_size=cfg.repeats,
                                    max_size=cfg.repeats))
    report = Report(schema_version=REPORT_SCHEMA_VERSION, kind=argv[0],
                    fidelities=tuple(fidelities), gate_counts={"toffoli_depth": 7}, config=cfg,
                    tool_version=__version__, wall_seconds=data.draw(st.floats(0.0, 1e9)),
                    created_at="2025-01-01T00:00:00+00:00")
    with tempfile.TemporaryDirectory() as tmp:
        assert load_report(emit_report(report, "json", Path(tmp) / "r.json")) == report
