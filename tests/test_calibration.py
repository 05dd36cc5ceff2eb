"""Calibration ingestion: every malformed file is a ``SchemaError`` that names its path."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccxlab import cli
from ccxlab.calibration import builtin_calibration_path, ingest_calibration
from ccxlab.errors import CcxlabError, ErrTooLargeError, SchemaError
from ccxlab.noise import scale_noise_model, thermal_relaxation_channel

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


def _with_value(tmp_path, where, field, value):
    payload = json.loads(BRISBANE.read_text())
    entry = payload["qubits"][0] if where == "qubits" else payload["gates"][0]  # gates[0]: ECR
    entry[field] = value
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(payload))  # NaN and Infinity go out as JavaScript tokens
    return path


@pytest.mark.parametrize("where, field, named", [
    ("qubits", "readout_length_ns", "readout_length_ns="), ("gates", "error", "gate error ECR="),
    ("gates", "duration_ns", "gate duration ECR="), ("qubits", "frequency_ghz", "frequency_ghz="),
    ("qubits", "anharmonicity_ghz", "anharmonicity_ghz=")])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("command", [["calib-summary"], ["qst", "--repeats", "1", "--noise"]])
def test_a_non_finite_calibration_value_is_a_schema_error_naming_the_path(
        tmp_path, capsys, where, field, named, value, command):
    # a NaN used to pass every bound and silently drop its noise term
    path = _with_value(tmp_path, where, field, value)
    assert cli.main([*command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[schema]: ") and str(path) in err and named + str(value) in err


def test_infinite_coherence_times_still_ingest(tmp_path):
    path = _with_value(tmp_path, "qubits", "t1_us", math.inf)
    payload = json.loads(path.read_text())
    payload["qubits"][0]["t2_us"] = math.inf
    path.write_text(json.dumps(payload))
    assert math.isinf(ingest_calibration(path).noise_model(3).calibration(2).t2_us)


# -- fuzzing ---------------------------------------------------------------------

#: numbers at the edges: NaN and Infinity tokens, negatives, the smallest subnormal, and an
#: integer no float holds
_EDGE_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 5e-324, 10 ** 400])
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _paths(node, prefix=()):
    """The key path of every value below ``node``, parents before children."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_calibrations(draw):
    """The brisbane_median payload with one to three values replaced or deleted.

    Each mutation picks any value in the file, or the whole file, and deletes
    it or replaces it: a wrong type, a missing field, a negative or huge
    number, or a NaN/Infinity token.
    """
    payload = json.loads(BRISBANE.read_text())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([*_paths(payload), ()]))
        if not path:
            payload = draw(_JSON_VALUES)
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.one_of(_EDGE_NUMBERS, _JSON_VALUES))
    return payload


@settings(max_examples=300, deadline=None)
@given(payload=_mutated_calibrations())
def test_a_mutated_calibration_ingests_or_is_a_typed_error_naming_the_path(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calibration.json"
        path.write_text(json.dumps(payload))
        try:
            table = ingest_calibration(path)
        except CcxlabError as exc:
            assert str(path) in str(exc)
            return
    # what ingests is finite where the simulator reads it, and builds its channels
    for cal in table.qubits:
        assert 0 <= cal.readout_length_ns < math.inf
        assert math.isfinite(cal.frequency_ghz) and math.isfinite(cal.anharmonicity_ghz)
        for duration in (cal.readout_length_ns, *table.gate_duration.values()):
            try:
                thermal_relaxation_channel(duration, cal.t1_us, cal.t2_us)
            except CcxlabError:
                pass  # coherence times too short for floats fail the typed self-check
    assert all(0 <= v < 1 for v in table.gate_error.values())
    assert all(0 <= v < math.inf for v in table.gate_duration.values())


@pytest.mark.parametrize("text, reason", [
    ('{"qubits": [{"t1_us": 1' + "0" * 400 + ', "t2_us": 100, "readout_length_ns": 0}]}',
     "too large for a float"),
    ('{"qubits": [{"t1_us": 1' + "0" * 5000 + "}]}", "not valid JSON"),
    (b"\xff\xfe{}", "not valid JSON")])
def test_numbers_and_bytes_that_python_cannot_read_are_schema_errors(tmp_path, capsys, text,
                                                                      reason):
    path = tmp_path / "calibration.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SchemaError, match=reason) as raised:
        ingest_calibration(path)
    assert str(path) in str(raised.value)
    assert cli.main(["calib-summary", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error[schema]: ")
