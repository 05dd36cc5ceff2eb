"""Calibration ingestion: every malformed file is a ``SchemaError`` that names its path."""

import json

import pytest

from ccxlab import cli
from ccxlab.calibration import builtin_calibration_path, ingest_calibration
from ccxlab.errors import ErrTooLargeError, SchemaError
from ccxlab.noise import scale_noise_model

BRISBANE = builtin_calibration_path("brisbane_median")


def _write(tmp_path, **changes):
    payload = json.loads(BRISBANE.read_text())
    payload.update(changes)
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("gates", [5, None, "ECR", {"name": "ECR"}])
def test_a_gate_table_that_is_not_an_array_is_a_schema_error(tmp_path, gates):
    path = _write(tmp_path, gates=gates)
    with pytest.raises(SchemaError, match="'gates' must be an array") as error:
        ingest_calibration(path)
    assert str(path) in str(error.value)


@pytest.mark.parametrize("name, error", [("ECR", 0.75), ("ECR", 0.9), ("SX", 0.5),
                                         ("X", 0.6), ("ID", 0.5)])
def test_a_gate_error_no_depolarizing_channel_realises_is_a_schema_error(tmp_path, name, error):
    path = _write(tmp_path, gates=[{"name": name, "error": error}])
    with pytest.raises(SchemaError, match=f"gate error {name}={error}") as raised:
        ingest_calibration(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("name, error", [("ECR", 0.7499), ("SX", 0.4999), ("CX", 0.9)])
def test_realisable_and_unused_gate_errors_are_accepted(tmp_path, name, error):
    # only the gates the simulator runs have a depolarizing bound; others stay below 1
    table = ingest_calibration(_write(tmp_path, gates=[{"name": name, "error": error}]))
    assert table.noise_model(3).error_for(name) == error


@pytest.mark.parametrize("gates, code", [(5, 3), ([{"name": "ECR", "error": 0.8}], 3),
                                         ([{"name": "ECR", "error": 0.01}], 0)])
def test_calib_summary_exit_codes(tmp_path, capsys, gates, code):
    path = _write(tmp_path, gates=gates)
    assert cli.main(["calib-summary", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error[schema]: ") if code else err == ""


def test_a_noise_scale_past_the_bound_is_a_typed_error(capsys):
    nm = ingest_calibration(BRISBANE).noise_model(3)
    # ECR 0.00832 * 100 = 0.832 >= 0.75, below the 1.0 a probability allows
    with pytest.raises(ErrTooLargeError, match="ECR"):
        scale_noise_model(nm, 100.0)
    code = cli.main(["qst", "--noise", "builtin:brisbane_median", "--noise-scale", "100",
                     "--repeats", "1", "--shots", "10"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error[numerical]: gate error ECR")
