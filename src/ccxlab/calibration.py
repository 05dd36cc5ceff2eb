"""Calibration file ingestion and summary statistics.

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
ignored by the noise model, which is name-keyed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import CoherenceViolation, ErrTooLargeError, SchemaError
from .noise import NoiseModel, QubitCalibration

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

    def noise_model(self, num_qubits: int) -> NoiseModel:
        """Noise model over ``num_qubits``; a single record broadcasts."""
        if len(self.qubits) == 1:
            cal = tuple([self.qubits[0]] * num_qubits)
        elif len(self.qubits) >= num_qubits:
            cal = self.qubits[:num_qubits]
        else:
            raise SchemaError(
                f"{self.source}: {len(self.qubits)} qubit records cannot cover "
                f"{num_qubits} qubits (only a single record broadcasts)")
        return NoiseModel(cal, self.gate_error, self.gate_duration)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-column mean/std/min/quartiles/max across the qubit records."""
        stats: Dict[str, Dict[str, float]] = {}
        for name in _QUBIT_FIELDS:
            col = np.array([getattr(q, name) for q in self.qubits], dtype=float)
            stats[name] = {
                "mean": float(np.mean(col)),
                "std": float(np.std(col, ddof=1)) if len(col) > 1 else 0.0,
                "min": float(np.min(col)),
                "25%": float(np.percentile(col, 25)),
                "50%": float(np.percentile(col, 50)),
                "75%": float(np.percentile(col, 75)),
                "max": float(np.max(col)),
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
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"calibration file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # invalid JSON or UTF-8, or an integer literal too long to read
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "qubits" not in payload:
        raise SchemaError(f"{path}: top-level object with a 'qubits' array required")
    raw_qubits = payload["qubits"]
    if not isinstance(raw_qubits, list) or not raw_qubits:
        raise SchemaError(f"{path}: 'qubits' must be a non-empty array")

    records: List[QubitCalibration] = []
    for i, entry in enumerate(raw_qubits):
        loc = f"{path}: qubits[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{loc}: expected an object")
        kwargs = {}
        for field, required in _QUBIT_FIELDS.items():
            if required:
                kwargs[field] = _require(entry, field, loc)
            elif field in entry:
                kwargs[field] = _require(entry, field, loc)
        qubit_id = entry.get("id", i)
        try:
            records.append(QubitCalibration(**kwargs))
        except CoherenceViolation as exc:
            raise CoherenceViolation(f"{loc} (qubit {qubit_id}): {exc}") from exc
        except ValueError as exc:
            raise SchemaError(f"{loc} (qubit {qubit_id}): {exc}") from exc

    raw_gates = payload.get("gates", [])
    if not isinstance(raw_gates, list):
        raise SchemaError(f"{path}: 'gates' must be an array")
    gate_error: Dict[str, float] = {}
    gate_duration: Dict[str, float] = {}
    for i, entry in enumerate(raw_gates):
        loc = f"{path}: gates[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{loc}: expected an object with a 'name'")
        name = str(entry["name"]).upper()
        if "error" in entry:
            gate_error[name] = _require(entry, "error", loc)
        if "duration_ns" in entry:
            gate_duration[name] = _require(entry, "duration_ns", loc)

    table = CalibrationTable(tuple(records), gate_error, gate_duration, str(path))
    try:
        table.noise_model(1)  # validate gate maps eagerly
    except (ValueError, ErrTooLargeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return table
