"""End-to-end tomography experiments and machine-readable reports.

A run simulates once, under its noise model: a calibration-derived one when
noise-aware (with zero readout confusion when readout error is off) and
``NOISELESS`` when noise-free. State tomography evolves its input circuit
whole, on the three-qubit register, from |0><0|, into a stack of one state.
Process tomography's 64 probes are the products of 4 one-qubit probe
circuits, so ``product_states`` evolves each of those once per wire and
forms every product. The run pushes the stack of prepared states through
the chosen Toffoli realization once, on the whole register, one fused block
per two-qubit gate (8 products for the 44 gates of ``ECR_NATIVE``). It reads
every measurement setting off one readout map, itself built per qubit from
the X, Y and Z rotations, into a table of exact outcome distributions, one
per (preparation, setting) cell. The two modes differ only in the model.
That table is a pure function of the model, the strategy and the
preparations, so the model keeps it, read-only, in ``NoiseModel.compiled``
next to its gate channels, keyed by the strategy and the input state (or
"qpt"): a second run on the same model simulates nothing. Every noise-free
run after the first is such a run, since ``NOISELESS`` is one constant; a
noise-aware run builds a fresh model from its calibration file and computes
its own table. Only the sampling differs from one repeat to the next: a
repeat draws seeded finite-shot counts from that table and is
reconstructed, and one ``state_fidelity`` call scores the stack of all
repeats' estimates against the target ket: U|in> for state tomography,
``choi_ket_of_unitary(U)`` for process tomography. The two differ only in
the preparations, estimator and ket they hand to that one run, ``_run``.
State tomography reconstructs all repeats in one call on their stacked
tables; process tomography draws and reconstructs one table at a time.

Determinism: repeat r of any run draws every cell of its table, in
row-major order, from one generator seeded (master_seed, r) by
``simulator.sample_distribution``, which rounds each distribution to 12
decimals first: a table's round-off, which moves when the order of its
products does, never reaches the counts. An exact-probability run uses the
unrounded table. A stacked reconstruction, and a stacked fidelity, gives
each entry exactly what a single call gives. So repeat r does not depend on
how many repeats run, and state and process tomography share one seed layout.
Runs are serial.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .calibration import ingest_calibration
from .circuits import Circuit
from .errors import IoError, SchemaError, UsageError
from .noise import NOISELESS, NoiseModel, scale_noise_model
from .qmath import state_fidelity
from .simulator import (
    product_states,
    readout_map,
    run_density,
    sample_distribution,
    setting_distributions,
)
from .states import PROBE_LABELS, StateKind, prepare_state, probe_circuit, target_state
from .synthesis import DecompositionStrategy, decompose_toffoli, toffoli_unitary
from .tomography import (
    average_gate_fidelity,
    choi_ket_of_unitary,
    measurement_rotation,
    qpt_reconstruct,
    qst_reconstruct,
    qst_settings,
)
from .version import __version__

#: single-run state fidelities published for real-device execution; carried in
#: reports purely for comparison display, never reproduced here
HARDWARE_REFERENCE_FIDELITY = {"GHZ": 0.56368, "W": 0.63689, "UNIFORM": 0.61161}

#: the report layout this version writes; it also reads layout 1, which carried
#: the last repeat's raw TP deviation as well
REPORT_SCHEMA_VERSION = 2

DEFAULT_CONTROLS = (0, 1)
DEFAULT_TARGET = 2


class Mode(str, Enum):
    NOISE_FREE = "NOISE_FREE"
    NOISE_AWARE = "NOISE_AWARE"


@dataclass(frozen=True)
class ExperimentConfig:
    mode: Mode = Mode.NOISE_FREE
    input_state: StateKind = StateKind.GHZ
    strategy: DecompositionStrategy = DecompositionStrategy.ECR_NATIVE
    shots_per_setting: int = 19000
    master_seed: int = 1
    calibration_path: Optional[str] = None
    repeats: int = 20
    exact_probabilities: bool = False
    apply_readout: bool = True
    noise_scale: float = 1.0

    def __post_init__(self):
        for name, kind in (("mode", Mode), ("input_state", StateKind),
                           ("strategy", DecompositionStrategy)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, kind(value))
            except ValueError:
                raise UsageError(f"{name} must be one of {[k.value for k in kind]}, "
                                 f"got {value!r}") from None
        for name, least in (("shots_per_setting", 1), ("repeats", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise UsageError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.mode is Mode.NOISE_AWARE and not self.calibration_path:
            raise UsageError("NOISE_AWARE mode requires a calibration path")
        scale = self.noise_scale
        if (isinstance(scale, bool) or not isinstance(scale, numbers.Real)
                or not 0 <= scale < math.inf):
            raise UsageError(f"noise_scale must be a finite real >= 0, got {scale!r}")
        object.__setattr__(self, "noise_scale", float(scale))
        if self.mode is Mode.NOISE_FREE and (self.noise_scale != 1.0 or not self.apply_readout):
            raise UsageError("noise_scale and apply_readout apply only to NOISE_AWARE runs")

    def noise_model(self) -> NoiseModel:
        """The three-qubit noise model of a noise-aware run; ``NOISELESS`` when noise-free.

        Without ``apply_readout`` every qubit of it has zero readout confusion.
        """
        if self.mode is Mode.NOISE_FREE:
            return NOISELESS
        nm = ingest_calibration(self.calibration_path).noise_model(3)
        if self.noise_scale != 1.0:
            nm = scale_noise_model(nm, self.noise_scale)
        if not self.apply_readout:
            nm = replace(nm, qubit_cal=tuple(replace(c, prob_meas0_prep1=0.0, prob_meas1_prep0=0.0)
                                             for c in nm.qubit_cal))
        return nm


@dataclass(frozen=True)
class Report:
    schema_version: int
    kind: str
    fidelities: Tuple[float, ...]
    mean_fidelity: float
    std_fidelity: float
    average_gate_fidelities: Optional[Tuple[float, ...]]
    gate_counts: Dict[str, int]
    num_jobs: int
    total_measurements: int
    config: Dict[str, object]
    hardware_reference: Optional[Dict[str, float]]
    tool_version: str
    wall_seconds: float
    created_at: str

    def __post_init__(self):
        for f in self.fidelities:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fidelity {f} outside [0, 1]")


def _make_report(kind: str, fidelities: Sequence[float], cfg: ExperimentConfig,
                 gate_counts: Dict[str, int], num_jobs: int, wall: float,
                 average_gate_fidelities: Optional[Sequence[float]] = None) -> Report:
    fids = tuple(float(f) for f in fidelities)
    mean = float(np.mean(fids))
    std = float(np.std(fids, ddof=1)) if len(fids) > 1 else 0.0
    cfg_echo = {k: (v.value if isinstance(v, Enum) else v) for k, v in asdict(cfg).items()}
    state = cfg.input_state.value
    hardware = {state: HARDWARE_REFERENCE_FIDELITY[state]} if kind == "qst" else None
    return Report(
        schema_version=REPORT_SCHEMA_VERSION,
        kind=kind,
        fidelities=fids,
        mean_fidelity=mean,
        std_fidelity=std,
        average_gate_fidelities=(tuple(float(f) for f in average_gate_fidelities)
                                 if average_gate_fidelities is not None else None),
        gate_counts=gate_counts,
        num_jobs=num_jobs,
        total_measurements=num_jobs * cfg.shots_per_setting,
        config=cfg_echo,
        hardware_reference=hardware,
        tool_version=__version__,
        wall_seconds=wall,
        created_at=datetime.now(timezone.utc).isoformat(),
    )


def _gate_count_summary(toffoli: Circuit, full: Circuit) -> Dict[str, int]:
    return {
        "toffoli_two_qubit": toffoli.two_qubit_count(),
        "toffoli_depth": toffoli.depth(),
        "circuit_two_qubit": full.two_qubit_count(),
        "circuit_depth": full.depth(),
    }


# -- measurement ---------------------------------------------------------------

def _distributions(preparations: np.ndarray, gate: Circuit, nm: NoiseModel) -> np.ndarray:
    """Exact outcome distributions of ``gate`` after each preparation, shape
    (preparations, 27 settings, 8 outcomes), settings in ``qst_settings`` order.

    One ``run_density`` evolves ``gate`` once, under ``nm``, on the (8, 8, P)
    stack of prepared states. Every setting's distribution (rotation circuit,
    readout relaxation, readout confusion) is read off one ``readout_map`` of
    the X, Y and Z rotations.
    """
    table = readout_map([measurement_rotation(letter) for letter in "XYZ"], 3, nm)
    return setting_distributions(run_density(gate, nm, preparations), table)


def _frequencies(distributions: np.ndarray, cfg: ExperimentConfig, repeat: int) -> np.ndarray:
    """Repeat ``repeat``'s outcome frequencies of every cell of ``distributions``, same shape.

    The distributions themselves when ``cfg.exact_probabilities``; otherwise
    one ``sample_distribution`` draw of the whole table seeded (master_seed, repeat).
    """
    if cfg.exact_probabilities:
        return distributions
    shots = cfg.shots_per_setting
    return sample_distribution(distributions, shots, (cfg.master_seed, repeat)) / shots


@functools.lru_cache(maxsize=None)
def _toffoli(strategy: DecompositionStrategy) -> Circuit:
    """The Toffoli under test, synthesized once per strategy and process: a circuit is immutable."""
    return decompose_toffoli(strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)


def _run(cfg: ExperimentConfig, nm: NoiseModel, preparations: Hashable,
         prepare: Callable[[], np.ndarray],
         estimate: Callable[[Iterator[np.ndarray]], np.ndarray],
         reference: np.ndarray) -> Tuple[Circuit, List[float]]:
    """The Toffoli under test and every repeat's fidelity against the target ket ``reference``.

    The Toffoli runs under ``nm``, the run's ``cfg.noise_model()``, on the
    (8, 8, P) stack of states ``prepare()`` returns. That table is a pure
    function of the model, the strategy and the preparations, so
    ``nm.compiled`` keeps it, read-only, under the strategy and
    ``preparations``, a key that names the preparations by value: a second
    run on the same model calls neither ``prepare`` nor ``_distributions``.

    ``estimate`` takes the repeats' ``_frequencies`` of that table, each of
    shape (preparations, 27, 8), lazily and in repeat order. It returns the
    (repeats, d, d) stack of their estimates, states or Choi matrices, in the
    same order, and one ``state_fidelity`` call scores the whole stack.
    """
    toffoli = _toffoli(cfg.strategy)

    def build() -> np.ndarray:
        table = _distributions(prepare(), toffoli, nm)
        table.setflags(write=False)
        return table

    # the strategy names the Toffoli by value; hashing its 44 gates would cost ~11 us a call
    distributions = nm.compiled(("table", cfg.strategy, preparations), build)
    tables = (_frequencies(distributions, cfg, repeat) for repeat in range(cfg.repeats))
    return toffoli, state_fidelity(estimate(tables), reference).tolist()


def run_qst_experiment(cfg: ExperimentConfig) -> Report:
    """State tomography of the Toffoli output for the configured input state (27 jobs)."""
    start = time.perf_counter()
    nm = cfg.noise_model()
    preparation = prepare_state(cfg.input_state)
    psi = toffoli_unitary(DEFAULT_CONTROLS, DEFAULT_TARGET) @ target_state(cfg.input_state)
    toffoli, fidelities = _run(cfg, nm, cfg.input_state,
                               lambda: run_density(preparation, nm)[..., None],
                               lambda tables: qst_reconstruct(np.concatenate(tuple(tables)), 3),
                               psi)
    return _make_report("qst", fidelities, cfg,
                        _gate_count_summary(toffoli, preparation.concat(toffoli)),
                        num_jobs=len(qst_settings(3)), wall=time.perf_counter() - start)


def run_qpt_experiment(cfg: ExperimentConfig) -> Report:
    """Process tomography of the configured Toffoli realization (k=3, 1728 jobs).

    The jobs are the (probe, setting) cells, probe-major: the 64 probes in
    ``itertools.product(PROBE_LABELS, repeat=3)`` order, each with the 27
    settings in ``qst_settings`` order.
    """
    start = time.perf_counter()
    nm = cfg.noise_model()

    # the probes are constant, so one marker names them
    toffoli, fidelities = _run(
        cfg, nm, "qpt",
        lambda: product_states([probe_circuit((label,)) for label in PROBE_LABELS], 3, nm),
        lambda tables: np.stack([qpt_reconstruct(table, 3) for table in tables]),
        choi_ket_of_unitary(toffoli_unitary(DEFAULT_CONTROLS, DEFAULT_TARGET)))
    # probe preparations vary per job; report the gate under test
    return _make_report("qpt", fidelities, cfg, _gate_count_summary(toffoli, toffoli),
                        num_jobs=len(PROBE_LABELS) ** 3 * len(qst_settings(3)),
                        wall=time.perf_counter() - start,
                        average_gate_fidelities=[average_gate_fidelity(f, 3) for f in fidelities])


# -- report files ------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    return asdict(report)


def report_from_dict(payload: dict) -> Report:
    payload = dict(payload)
    version = payload.get("schema_version")
    # an integer, not merely equal to one: True == 1 in Python
    if type(version) is not int or version not in (1, REPORT_SCHEMA_VERSION):
        raise ValueError(f"unknown schema_version {version!r} "
                         f"(expected 1 or {REPORT_SCHEMA_VERSION})")
    if version == 1:  # keep the fields a report still has: all but the raw TP deviation
        payload = {f.name: payload[f.name] for f in fields(Report)}
        payload["schema_version"] = REPORT_SCHEMA_VERSION
    payload["fidelities"] = tuple(payload["fidelities"])
    if payload.get("average_gate_fidelities") is not None:
        payload["average_gate_fidelities"] = tuple(payload["average_gate_fidelities"])
    return Report(**payload)


def emit_report(report: Report, fmt: str, path: Union[str, Path]) -> Path:
    """Write a report as versioned JSON or per-repeat CSV rows."""
    path = Path(path)
    fmt = fmt.lower()
    try:
        if fmt == "json":
            path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
        elif fmt == "csv":
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                header = ["repeat", "fidelity"]
                if report.average_gate_fidelities is not None:
                    header.append("average_gate_fidelity")
                writer.writerow(header)
                for i, f in enumerate(report.fidelities):
                    row = [i, repr(f)]
                    if report.average_gate_fidelities is not None:
                        row.append(repr(report.average_gate_fidelities[i]))
                    writer.writerow(row)
        else:
            raise UsageError(f"unknown report format {fmt!r} (json or csv)")
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc
    return path


def load_report(path: Union[str, Path]) -> Report:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise IoError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return report_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not a valid report ({exc})") from exc
