"""CLI exit codes: bad arguments print ``error[usage]: ...`` and exit 2, not a traceback."""

import pytest

from ccxlab import cli
from ccxlab.circuits import Circuit, serialize_circuit
from ccxlab.gates import x


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
