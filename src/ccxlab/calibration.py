"""Calibration file ingestion and summary statistics.

A calibration is named by a file path or by ``builtin:<name>``, one of the
packaged medians in ``BUILTIN_CALIBRATIONS``; ``ingest_calibration`` alone
resolves that name, so every caller passes the argument as the user gave it.

Schema (JSON)::

    {
      "qubits": [{"id": 0, "t1_us": ..., "t2_us": ..., "frequency_ghz": ...,
                  "anharmonicity_ghz": ..., "prob_meas0_prep1": ...,
                  "prob_meas1_prep0": ..., "readout_error": ...,
                  "readout_length_ns": ...}, ...],
      "gates":  [{"name": "ECR", "qubits": [0, 1], "error": ...,
                  "duration_ns": ...}, ...]
    }

A file with a single qubit entry is a median-only summary; the entry is
broadcast to every qubit of the requested register. Gate entries keyed by
name apply device-wide (the per-pair ``qubits`` field is accepted and
ignored by the noise model, which is name-keyed). So each gate name, read
upper-cased, appears once: the model keeps one error and duration per name,
and a repeated name is a ``SchemaError`` that names both entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import CcxlabError, SchemaError
from .noise import NoiseModel, QubitCalibration

#: every column of a qubit record, and whether it is required. ``QubitCalibration`` holds the
#: ones the simulator reads; frequency, anharmonicity and readout error are the summary's alone
_QUBIT_FIELDS = {
    "t1_us": True,
    "t2_us": True,
    "frequency_ghz": False,
    "anharmonicity_ghz": False,
    "prob_meas0_prep1": False,
    "prob_meas1_prep0": False,
    "readout_error": False,
    "readout_length_ns": True,
}

BUILTIN_CALIBRATIONS = ("sherbrooke_median", "brisbane_median")


def builtin_calibration_path(name: str) -> Path:
    """Filesystem path of a packaged median calibration file."""
    if name not in BUILTIN_CALIBRATIONS:
        raise SchemaError(f"unknown builtin calibration {name!r}; "
                          f"choose from {BUILTIN_CALIBRATIONS}")
    with resources.as_file(resources.files("ccxlab.data") / f"{name}.json") as p:
        return Path(p)


@dataclass(frozen=True)
class CalibrationTable:
    qubits: Tuple[QubitCalibration, ...]
    gate_error: Dict[str, float]
    gate_duration: Dict[str, float]
    source: str
    #: per column of ``_QUBIT_FIELDS``, its value in each qubit record, 0.0 where absent
    columns: Dict[str, Tuple[float, ...]]

    def noise_model(self, num_qubits: int) -> NoiseModel:
        """Noise model over ``num_qubits``: a single record repeated, or else the first
        ``num_qubits`` records, both one slice of the records repeated ``num_qubits``
        times; fewer records than qubits, or none, is a ``SchemaError``."""
        if len(self.qubits) != 1 and len(self.qubits) < num_qubits:
            raise SchemaError(
                f"{self.source}: {len(self.qubits)} qubit records cannot cover "
                f"{num_qubits} qubits (only a single record broadcasts)")
        return NoiseModel((self.qubits * num_qubits)[:num_qubits], self.gate_error,
                          self.gate_duration)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-column mean/std/min/quartiles/max across the qubit records.

        The quartiles come from one ``np.percentile`` call; min and max do not,
        since the 0th and 100th percentiles interpolate, so they read -0.0 as 0.0
        and give NaN beside an infinite T1 or T2 where ``np.min`` does not. Beside
        an infinity numpy's interpolation b - (b - a)(1 - t) is NaN too; there a
        quartile on an order statistic is that statistic, and one between two is
        the infinity it interpolates toward. The std of a column of more than one
        record that holds an infinity is +inf.
        """
        stats: Dict[str, Dict[str, float]] = {}
        for name, values in self.columns.items():
            col = np.array(values, dtype=float)
            at = (len(col) - 1) * np.array([0.25, 0.5, 0.75])
            low, high = np.sort(col)[np.array([np.floor(at), np.ceil(at)], dtype=int)]
            with np.errstate(invalid="ignore"):
                quartiles = np.percentile(col, [25, 50, 75])
            q1, q2, q3 = np.where(np.isnan(quartiles), np.where(low == high, low, low + high),
                                  quartiles)
            std = (0.0 if len(col) == 1 else math.inf if np.isinf(col).any()
                   else np.std(col, ddof=1))
            stats[name] = {
                "mean": float(np.mean(col)), "std": float(std),
                "min": float(np.min(col)), "25%": float(q1), "50%": float(q2),
                "75%": float(q3), "max": float(np.max(col)),
            }
        return stats


def _require(entry: dict, field: str, path: str) -> float:
    if field not in entry:
        raise SchemaError(f"{path}: missing field {field!r}")
    value = entry[field]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}.{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise SchemaError(f"{path}.{field}: number too large for a float") from None


def ingest_calibration(path: Union[str, Path]) -> CalibrationTable:
    """Read and check a calibration file, given as a path or ``builtin:<name>``.

    A file that cannot be read, a missing one included, is a ``SchemaError``
    that names the path, raised from the ``OSError`` of the read.
    """
    if path == "":
        raise SchemaError("calibration path is empty")
    if isinstance(path, str) and path.startswith("builtin:"):
        path = builtin_calibration_path(path[len("builtin:"):])
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:  # a missing file, a directory, or a file without read permission
        raise SchemaError(f"cannot read calibration {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8, or an integer literal too long to read
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    raw_qubits = payload.get("qubits") if isinstance(payload, dict) else None
    if not isinstance(raw_qubits, list) or not raw_qubits:
        raise SchemaError(f"{path}: a top-level object with a non-empty 'qubits' array required")

    simulated = {f.name for f in fields(QubitCalibration)}
    records: List[QubitCalibration] = []
    rows: List[Dict[str, float]] = []
    for i, entry in enumerate(raw_qubits):
        loc = f"{path}: qubits[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{loc}: expected an object")
        row = {field: _require(entry, field, loc) if required or field in entry else 0.0
               for field, required in _QUBIT_FIELDS.items()}
        rows.append(row)
        qubit_id = entry.get("id", i)
        try:
            records.append(QubitCalibration(**{f: v for f, v in row.items() if f in simulated}))
            for name in ("frequency_ghz", "anharmonicity_ghz"):
                if not math.isfinite(row[name]):
                    raise SchemaError(f"{name}={row[name]} is not finite")
            if not 0.0 <= row["readout_error"] <= 1.0:
                raise SchemaError(f"readout_error={row['readout_error']} outside [0, 1]")
        except CcxlabError as exc:
            raise SchemaError(f"{loc} (qubit {qubit_id}): {exc}") from exc

    raw_gates = payload.get("gates", [])
    if not isinstance(raw_gates, list):
        raise SchemaError(f"{path}: 'gates' must be an array")
    gate_error: Dict[str, float] = {}
    gate_duration: Dict[str, float] = {}
    first: Dict[str, int] = {}  # each name's first entry
    for i, entry in enumerate(raw_gates):
        loc = f"{path}: gates[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise SchemaError(f"{loc}: expected an object with a string 'name'")
        name = entry["name"].upper()
        if first.setdefault(name, i) != i:
            raise SchemaError(f"{loc}: {name!r} repeats gates[{first[name]}]; the noise model "
                              "keeps one error and duration per gate name")
        if "error" in entry:
            gate_error[name] = _require(entry, "error", loc)
        if "duration_ns" in entry:
            gate_duration[name] = _require(entry, "duration_ns", loc)

    table = CalibrationTable(tuple(records), gate_error, gate_duration, str(path),
                             {field: tuple(row[field] for row in rows) for field in _QUBIT_FIELDS})
    try:
        table.noise_model(1)  # validate gate maps eagerly
    except CcxlabError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return table
