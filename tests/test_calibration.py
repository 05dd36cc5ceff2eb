"""Calibration ingestion: every malformed file is a ``SchemaError`` that names its path."""

import dataclasses
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccxlab import cli, experiments
from ccxlab.calibration import CalibrationTable, builtin_calibration_path, ingest_calibration
from ccxlab.errors import CcxlabError, SchemaError
from ccxlab.noise import scale_noise_model, thermal_relaxation_channel

from conftest import raises_numerical

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


@pytest.mark.parametrize("name", [None, 5, True, ["ECR"], {"ECR": 1}])
def test_a_gate_entry_whose_name_is_not_a_string_is_a_schema_error(tmp_path, capsys, name):
    # a null name used to ingest as gate "NONE", and 5 as gate "5"
    path = _write(tmp_path, gates=[{"name": "SX", "error": 0.001}, {"name": name, "error": 0.01}])
    with pytest.raises(SchemaError, match=r"gates\[1\]: expected an object with a string 'name'") \
            as error:
        ingest_calibration(path)
    assert str(path) in str(error.value)
    assert cli.main(["calib-summary", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error[schema]: ")


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


@pytest.mark.parametrize("command", [["calib-summary"], ["qst", "--repeats", "1", "--noise"]])
def test_an_unknown_builtin_calibration_is_a_schema_error(command, capsys):
    with pytest.raises(SchemaError, match="^unknown builtin calibration 'nowhere'; choose from "):
        builtin_calibration_path("nowhere")
    assert cli.main([*command, "builtin:nowhere"]) == 3
    assert capsys.readouterr().err.startswith("error[schema]: unknown builtin calibration ")


def test_ingest_calibration_resolves_a_builtin_name():
    # the one place a builtin:<name> argument is resolved; the CLI and configs pass it as given
    assert (ingest_calibration("builtin:sherbrooke_median")
            == ingest_calibration(builtin_calibration_path("sherbrooke_median")))


def _repeated_gates(tmp_path, first, second):
    """brisbane_median with two more gate entries, errors 0.3 then 0.01."""
    gates = json.loads(BRISBANE.read_text())["gates"]
    return _write(tmp_path, gates=gates + [{"name": first, "error": 0.3},
                                           {"name": second, "error": 0.01}])


@pytest.mark.parametrize("first, second, repeat, of, name", [
    ("ECR", "ECR", 4, 0, "ECR"), ("SX", "sx", 4, 1, "SX"), ("CX", "cx", 5, 4, "CX"),
    ("ecr", "X", 4, 0, "ECR")])
def test_a_repeated_gate_name_is_a_schema_error_naming_both_entries(tmp_path, capsys, first,
                                                                    second, repeat, of, name):
    # names are read upper-cased and the model keeps one error per name, so the last entry
    # used to replace the others: gate_error["ECR"] was 0.01, silently
    path = _repeated_gates(tmp_path, first, second)
    message = (f"{path}: gates[{repeat}]: {name!r} repeats gates[{of}]; the noise model keeps "
               "one error and duration per gate name")
    with pytest.raises(SchemaError) as error:
        ingest_calibration(path)
    assert str(error.value) == message
    assert (error.value.category, error.value.exit_code) == ("schema", 3)
    assert cli.main(["calib-summary", str(path)]) == 3
    assert capsys.readouterr() == ("", f"error[schema]: {message}\n")
    assert cli.main(["qst", "--noise", str(path), "--repeats", "1", "--shots", "10"]) == 3


def test_a_noise_scale_past_the_bound_is_a_typed_error(capsys):
    nm = ingest_calibration(BRISBANE).noise_model(3)
    # ECR 0.00832 * 100 = 0.832 >= 0.75, below the 1.0 a probability allows
    with raises_numerical(r"^gate error ECR=\S+ >= 0\.75, which no depolarizing channel"):
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


@pytest.mark.parametrize("name", ["frequency_ghz", "anharmonicity_ghz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ingest_rejects_a_non_finite_frequency(tmp_path, name, value):
    # summary-only columns reach no model, but ingest still checks them
    path = _with_value(tmp_path, "qubits", name, value)
    with pytest.raises(SchemaError, match=f"qubits\\[0\\] \\(qubit 0\\): {name}={value} is not"):
        ingest_calibration(path)


@pytest.mark.parametrize("value", [-0.01, 1.5, math.nan])
def test_ingest_rejects_a_readout_error_outside_the_unit_interval(tmp_path, value):
    path = _with_value(tmp_path, "qubits", "readout_error", value)
    with pytest.raises(SchemaError, match=f"qubits\\[0\\] \\(qubit 0\\): readout_error={value} "
                       "outside"):
        ingest_calibration(path)


def test_ingest_accepts_a_negative_anharmonicity(tmp_path):
    table = ingest_calibration(_with_value(tmp_path, "qubits", "anharmonicity_ghz", -0.31))
    assert table.columns["anharmonicity_ghz"] == (-0.31,)
    assert table.summary()["anharmonicity_ghz"]["min"] == -0.31


def _quartile_beside_an_infinity(col, percent):
    """The order statistic at an integer position, else the infinity a quartile interpolates
    toward, else numpy's interpolation between two finite neighbours."""
    ordered = sorted(col)
    at = (len(ordered) - 1) * percent / 100
    low = math.floor(at)
    if at == low:
        return ordered[low]
    infinite = [v for v in ordered[low:low + 2] if math.isinf(v)]
    return infinite[0] if infinite else np.percentile(col, percent)


def test_summary_order_statistics_are_those_of_one_numpy_call_each():
    # min, quartiles and max bit for bit, also for -0.0, which the 0th percentile reads as 0.0,
    # and min and max for infinite times, where the 0th and 100th percentiles are NaN. numpy's
    # quartiles are NaN beside an infinity as well, so for those columns the rule is the oracle
    rng = np.random.default_rng(5)
    columns = [col for name in ("brisbane_median", "sherbrooke_median")
               for col in ingest_calibration(f"builtin:{name}").columns.values()]
    for _ in range(2000):
        col = rng.normal(rng.normal(0, 100), rng.exponential(10), rng.integers(1, 130))
        picks = rng.random(col.size)
        col[picks < 0.05] = -0.0
        col[picks > 0.97] = rng.choice([math.inf, -math.inf, col[0]])
        columns.append(tuple(col))
    for col in columns:
        stats = CalibrationTable((), {}, {}, "columns", {"c": col}).summary()["c"]
        col = np.array(col)
        infinite = np.isinf(col).any()
        quartile = _quartile_beside_an_infinity if infinite else np.percentile
        expected = {"min": np.min(col), "25%": quartile(col, 25), "50%": quartile(col, 50),
                    "75%": quartile(col, 75), "max": np.max(col)}
        if infinite:  # by value: an order statistic -0.0 may read as numpy's 0.0
            assert {key: stats[key] for key in expected} == expected
        else:
            assert {key: stats[key].hex() for key in expected} \
                == {key: float(value).hex() for key, value in expected.items()}


@pytest.mark.parametrize("t1, quartiles, std", [
    ([math.inf], [math.inf] * 3, 0.0),
    ([100.0, math.inf], [math.inf] * 3, math.inf),
    ([100.0, 300.0, math.inf], [200.0, 300.0, math.inf], math.inf)],
    ids=["one-record", "two-records", "three-records"])
def test_summary_beside_an_infinite_t1_reads_order_statistics_and_infinities(
        tmp_path, capsys, t1, quartiles, std):
    # numpy interpolates b - (b - a)(1 - t), NaN beside +inf: T1 = 100 and Infinity printed
    # "std": NaN, "50%": NaN and "75%": NaN, with two RuntimeWarnings
    path = _write(tmp_path, qubits=[{**json.loads(BRISBANE.read_text())["qubits"][0], "id": i,
                                     "t1_us": value} for i, value in enumerate(t1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["calib-summary", str(path)]) == 0
    stats = json.loads(capsys.readouterr().out)["columns"]["t1_us"]
    assert [stats[key] for key in ("25%", "50%", "75%")] == quartiles
    assert (stats["mean"], stats["std"], stats["min"], stats["max"]) \
        == (math.inf, std, min(t1), math.inf)


def test_calibrations_that_differ_only_in_summary_columns_share_one_table(tmp_path,
                                                                          monkeypatch):
    # frequency, anharmonicity and readout error reach no simulation, so they are not part
    # of the model, of its numbers or of the key its exact table is cached under
    payload = json.loads(BRISBANE.read_text())
    payload["qubits"][0].update(frequency_ghz=5.1, anharmonicity_ghz=-0.2, readout_error=0.3)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    tables = [ingest_calibration(path) for path in (BRISBANE, other)]
    assert tables[0].columns["readout_error"] != tables[1].columns["readout_error"]
    assert tables[0].noise_model(3) == tables[1].noise_model(3)
    configs = [experiments.ExperimentConfig(mode="NOISE_AWARE", calibration_path=str(path),
                                            repeats=1, exact_probabilities=True)
               for path in (BRISBANE, other)]
    assert configs[0].noise_model() == configs[1].noise_model()
    first = experiments.run_qst_experiment(configs[0])
    computed = []
    distributions = experiments._distributions
    monkeypatch.setattr(experiments, "_distributions",
                        lambda *args: computed.append(args) or distributions(*args))
    assert experiments.run_qst_experiment(configs[1]).fidelities == first.fidelities
    assert computed == []


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
    for name in ("frequency_ghz", "anharmonicity_ghz"):
        assert all(math.isfinite(v) for v in table.columns[name])
    assert all(0 <= v <= 1 for v in table.columns["readout_error"])
    for cal in table.qubits:
        assert 0 <= cal.readout_length_ns < math.inf
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


def _unreadable(path):
    raise PermissionError(13, "Permission denied", str(path))


@pytest.mark.parametrize("kind", ["directory", "unreadable file", "missing file"])
def test_a_calibration_path_that_cannot_be_read_is_an_io_error(tmp_path, capsys, monkeypatch,
                                                              kind):
    # the library raises its own typed error, not the OSError of the read, as load_report does;
    # a root process reads a chmod 000 file, so the unreadable file fails its read by stand-in
    if kind == "directory":
        path = tmp_path
    elif kind == "missing file":
        path = tmp_path / "absent.json"
    else:
        path = _write(tmp_path)
        monkeypatch.setattr(Path, "read_text", lambda self, *args, **kwargs: _unreadable(self))
    with pytest.raises(SchemaError, match="cannot read calibration") as raised:
        ingest_calibration(path)
    assert str(path) in str(raised.value) and isinstance(raised.value.__cause__, OSError)
    assert raised.value.exit_code == 3
    assert cli.main(["calib-summary", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[schema]: cannot read calibration ") and str(path) in err


def _records(tmp_path, count, name="records.json"):
    """A Brisbane file with ``count`` distinct qubit records: record i has T1 and T2 scaled by
    1 + i/2 and its readout confusion by 1 + i."""
    payload = json.loads(BRISBANE.read_text())
    base = payload["qubits"][0]
    payload["qubits"] = [{**base, "id": i, "t1_us": base["t1_us"] * (1 + i / 2),
                          "t2_us": base["t2_us"] * (1 + i / 2),
                          "prob_meas0_prep1": base["prob_meas0_prep1"] * (1 + i),
                          "prob_meas1_prep0": base["prob_meas1_prep0"] * (1 + i)}
                         for i in range(count)]
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _first_record(path, tmp_path):
    payload = json.loads(path.read_text())
    payload["qubits"] = payload["qubits"][:1]
    first = tmp_path / "first.json"
    first.write_text(json.dumps(payload))
    return first


def test_a_three_record_file_models_its_records_in_file_order(tmp_path):
    table = ingest_calibration(_records(tmp_path, 3))
    cal = table.noise_model(3).qubit_cal
    assert cal == table.qubits
    assert [c.t1_us for c in cal] == [242.989 * (1 + i / 2) for i in range(3)]
    assert len(set(cal)) == 3


def _exact_qst(path):
    cfg = experiments.ExperimentConfig(mode="NOISE_AWARE", calibration_path=str(path),
                                       input_state="W", repeats=1, exact_probabilities=True)
    return experiments.run_qst_experiment(cfg).fidelities


def test_an_exact_run_on_three_records_differs_from_one_on_the_first_alone(tmp_path):
    # a single record broadcasts to every qubit; three records give each qubit its own
    path = _records(tmp_path, 3)
    assert _exact_qst(path) != _exact_qst(_first_record(path, tmp_path))


def test_a_four_record_file_uses_its_first_three_records(tmp_path):
    four, three = _records(tmp_path, 4, "four.json"), _records(tmp_path, 3, "three.json")
    model = ingest_calibration(four).noise_model(3)
    assert model.qubit_cal == ingest_calibration(four).qubits[:3]
    assert model == ingest_calibration(three).noise_model(3)
    assert _exact_qst(four) == _exact_qst(three)


def test_a_table_with_no_records_covers_no_register():
    table = CalibrationTable((), {}, {}, "empty.json", {})
    for num_qubits in (1, 3):
        with pytest.raises(SchemaError, match=rf"^empty\.json: 0 qubit records cannot cover "
                                              rf"{num_qubits} qubits"):
            table.noise_model(num_qubits)


def _numbers(nm):
    """Every number of a model, each as ``float.hex``: the qubit records field by field, then
    the gate errors and durations by name."""
    return ([[float(getattr(c, f.name)).hex() for f in dataclasses.fields(c)]
             for c in nm.qubit_cal],
            {name: float(v).hex() for name, v in nm.gate_error.items()},
            {name: float(v).hex() for name, v in nm.gate_duration.items()})


@pytest.mark.parametrize("source", ["builtin:brisbane_median", "builtin:sherbrooke_median",
                                    "three records"])
def test_scaling_by_one_gives_the_model_it_scales(tmp_path, source):
    # a noise-aware run scales its model by noise_scale with no special case for 1, so that
    # scale must give the file's model, number for number, and read the same cache entries
    path = str(_records(tmp_path, 3)) if source == "three records" else source
    nm = ingest_calibration(path).noise_model(3)
    scaled = scale_noise_model(nm, 1.0)
    assert scaled == nm and _numbers(scaled) == _numbers(nm)
    if source == "three records":
        assert len(set(nm.qubit_cal)) == 3
    run = experiments.ExperimentConfig(mode="NOISE_AWARE", calibration_path=path).noise_model()
    assert run == nm and hash(run) == hash(nm) and _numbers(run) == _numbers(nm)


def test_two_records_cannot_cover_a_three_qubit_run(tmp_path, capsys):
    path = _records(tmp_path, 2)
    message = "2 qubit records cannot cover 3 qubits (only a single record broadcasts)"
    with pytest.raises(SchemaError, match=re.escape(message)) as error:
        ingest_calibration(path).noise_model(3)
    assert (error.value.category, error.value.exit_code) == ("schema", 3)
    assert str(path) in str(error.value)
    assert cli.main(["qst", "--noise", str(path), "--repeats", "1", "--shots", "10"]) == 3
    err = capsys.readouterr().err
    assert err == f"error[schema]: {path}: {message}\n"
