"""End-to-end tomography experiments and machine-readable reports.

A run simulates once, under its noise model: a calibration-derived one when
noise-aware (with zero readout confusion when readout error is off) and
``NOISELESS`` when noise-free. State tomography evolves its input circuit
whole, on the three-qubit register, from |0><0|, into a stack of one state.
Process tomography's 64 probes are the products of 4 one-qubit probe
circuits, so ``product_states`` evolves each of those once per wire and
forms every product. The run pushes the stack of prepared states through
the chosen Toffoli realization once, on the whole register, one product
per gate (44 for ``ECR_NATIVE``), in circuit order. It reads
every measurement setting off one readout map, itself built per qubit from
the X, Y and Z rotations, into a table of exact outcome distributions, one
per (preparation, setting) cell. The two modes differ only in the model.
Each repeat draws seeded finite-shot counts from that table and is
reconstructed, and one ``state_fidelity`` call scores the stack of all
repeats' estimates against the target ket: U|in> for state tomography, the
Choi ket of U for process tomography. The two differ only in the kind,
preparations and estimator they hand to that one run, ``_run``, which times
it and writes its report. State tomography reconstructs all repeats in one
call on their stacked tables; process tomography draws and reconstructs one
table at a time.

A ``Report`` holds what the run was given, its ``ExperimentConfig``, and
what it measured. The job count, mean, sd and total are derived where they
are shown. A loaded report rebuilds its config through ``ExperimentConfig``,
whose validator checks it as it checks a run's.

What a run computes lives as long as what it depends on:

* Per process: whatever depends on neither the model nor the seed. The
  Toffoli under test, synthesized once per strategy, and one read-only
  record per (strategy, preparations), ``_subject``: the QST input circuit
  (none for "qpt"), the target ket and the report's gate counts, which
  each report copies. A first run builds its own input's record only, and
  a run of an input or kind that has run before builds, prepares and
  synthesizes nothing. ``tomography`` builds the estimators' two inversion
  maps once per process too, read-only, from ``NOISELESS``.
* Per model: its gate channels, its exact outcome tables and their draw
  forms. A table is a pure function of the model, the strategy and the
  preparations, the QST input or "qpt", so ``_table`` is an ``lru_cache``
  keyed by those three values, as ``simulator._local_channel`` is by gate
  and model: the entry holds the table and its ``simulator.draw_form``, both
  read-only, and a second run with equal numbers simulates and rounds
  nothing. A noise-aware run reads its calibration file afresh and builds a
  new model, which finds the entries of an earlier one with the same
  numbers; a file edited between runs gives other numbers and gets its own
  table. The cache keeps the ``_TABLES`` most recently used entries, so
  neither ``NOISELESS``, which lives as long as the process, nor a sweep
  over distinct numbers grows memory without end.
* Per repeat: one seeded draw, its reconstruction and its fidelity.

Determinism: repeat r of any run draws every cell of its table, in
row-major order, from one generator seeded (master_seed, r) by
``simulator.draws``, from the table's draw form, each distribution rounded
to 12 decimals: a table's round-off, which moves when the order of its
products does, never reaches the counts. An exact-probability run uses the
unrounded table. A stacked reconstruction, and a stacked fidelity, gives
each entry exactly what a single call gives. So repeat r does not depend on
how many repeats run, and state and process tomography share one seed
layout. Runs are serial.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import (Callable, Dict, Hashable, Iterator, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union, get_args, get_origin, get_type_hints)

import numpy as np

from .calibration import ingest_calibration
from .circuits import Circuit
from .errors import SchemaError, UsageError
from .noise import NOISELESS, NoiseModel, scale_noise_model
from .qmath import state_fidelity
from .simulator import (MAX_SHOTS, check_native, draw_form, draws, product_states, readout_map,
                        run_density, setting_distributions)
from .states import PROBE_LABELS, StateKind, prepare_state, target_state
from .synthesis import DecompositionStrategy, decompose_toffoli, toffoli_unitary
from .tomography import (
    average_gate_fidelity,
    choi_ket_of_unitary,
    probe_alphabet,
    qpt_reconstruct,
    qst_reconstruct,
    qst_settings,
    setting_alphabet,
)
from .version import __version__

#: single-run state fidelities published for real-device execution, per input state;
#: ``ccxlab report`` prints the one of a QST report's input, and nothing reproduces them
HARDWARE_REFERENCE_FIDELITY = {"GHZ": 0.56368, "W": 0.63689, "UNIFORM": 0.61161}

#: the report layout this version writes. It also reads layouts 1 to 3, which stored the
#: fidelities' mean and sd, the job count and the total measurements as well, layouts 1
#: and 2 each QPT repeat's average gate fidelity and a QST input's hardware reference,
#: and layout 1 the last repeat's raw TP deviation
REPORT_SCHEMA_VERSION = 4

DEFAULT_CONTROLS = (0, 1)
DEFAULT_TARGET = 2


class Mode(str, Enum):
    NOISE_FREE = "NOISE_FREE"
    NOISE_AWARE = "NOISE_AWARE"


#: the config fields that hold an enum member, and their enums; a report echoes their values
_ENUM_FIELDS = (("mode", Mode), ("input_state", StateKind), ("strategy", DecompositionStrategy))


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
        for name, kind in _ENUM_FIELDS:
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
        for name in ("exact_probabilities", "apply_readout"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise UsageError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if self.shots_per_setting > MAX_SHOTS:
            raise UsageError(f"shots_per_setting must be at most {MAX_SHOTS}, "
                             f"got {self.shots_per_setting}")
        if isinstance(self.calibration_path, os.PathLike):
            object.__setattr__(self, "calibration_path", os.fspath(self.calibration_path))
        if not isinstance(self.calibration_path, (str, type(None))):
            raise UsageError("calibration_path must be None, a str or an os.PathLike, "
                             f"got {self.calibration_path!r}")
        if self.mode is Mode.NOISE_AWARE and not self.calibration_path:
            raise UsageError("NOISE_AWARE mode requires a calibration path")
        scale = self.noise_scale
        if (isinstance(scale, bool) or not isinstance(scale, numbers.Real)
                or not 0 <= scale < math.inf):
            raise UsageError(f"noise_scale must be a finite real >= 0, got {scale!r}")
        object.__setattr__(self, "noise_scale", float(scale))
        if self.mode is Mode.NOISE_FREE and (self.calibration_path is not None
                                             or self.noise_scale != 1.0 or not self.apply_readout):
            raise UsageError("calibration_path, noise_scale and apply_readout apply only to "
                             "NOISE_AWARE runs")

    def noise_model(self) -> NoiseModel:
        """The three-qubit noise model of a noise-aware run; ``NOISELESS`` when noise-free.

        ``calibration_path`` is a file path or ``builtin:<name>``, handed to
        ``ingest_calibration`` as given. Every noise-aware model is scaled by
        ``noise_scale``; the default 1 gives a model equal to the file's. Without
        ``apply_readout`` every qubit of it has zero readout confusion. The
        calibration file is read and checked on every call, and each call builds
        a new model. It equals, and hashes like, any model with the same
        numbers, and that is what the channel and table caches are keyed by: the
        file's numbers, not its path, so a file edited between calls misses them.
        """
        if self.mode is Mode.NOISE_FREE:
            return NOISELESS
        nm = scale_noise_model(ingest_calibration(self.calibration_path).noise_model(3),
                               self.noise_scale)
        if not self.apply_readout:
            nm = replace(nm, qubit_cal=tuple(replace(c, prob_meas0_prep1=0.0, prob_meas1_prep0=0.0)
                                             for c in nm.qubit_cal))
        return nm


@dataclass(frozen=True)
class Report:
    """What a run was given, its config, and what it measured; nothing derived from them."""
    schema_version: int
    kind: str
    fidelities: Tuple[float, ...]
    gate_counts: Dict[str, int]
    config: ExperimentConfig
    tool_version: str
    wall_seconds: float
    created_at: str

    def __post_init__(self):
        if not self.fidelities:
            raise UsageError("a report needs at least one fidelity")
        for f in self.fidelities:
            if not 0.0 <= f <= 1.0:
                raise UsageError(f"fidelity {f} outside [0, 1]")

    @property
    def num_jobs(self) -> int:
        """The jobs of one repeat, those of the report's kind."""
        return _JOBS[self.kind]


#: the field names of a config, in order
_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))

#: the jobs of one repeat, per kind: the 27 settings of state tomography, and those 27 for
#: each of the 64 probes of process tomography
_JOBS = {"qst": len(qst_settings(3)), "qpt": len(PROBE_LABELS) ** 3 * len(qst_settings(3))}


def _mean_sd(fids: Sequence[float]) -> Tuple[float, float]:
    """The mean and sample sd of ``fids``, 0.0 for one value, as ``ccxlab report`` prints
    them: correctly rounded sums, within an ulp of numpy's."""
    mean = math.fsum(fids) / len(fids)
    return mean, math.sqrt(math.fsum([(f - mean) ** 2 for f in fids]) / (len(fids) - 1)) \
        if len(fids) > 1 else 0.0


# -- per-process constants -------------------------------------------------------

def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=None)
def _toffoli(strategy: DecompositionStrategy) -> Circuit:
    """The Toffoli under test, synthesized once per strategy and process: a circuit is immutable.

    The simulator runs native gates only, so a strategy with any other gate
    is a ``UsageError`` that names it, raised before a run builds its input.
    """
    circuit = decompose_toffoli(strategy, DEFAULT_CONTROLS, DEFAULT_TARGET)
    check_native(circuit, f"strategy {strategy.value} synthesizes it; experiments run only "
                          f"{DecompositionStrategy.ECR_NATIVE.value}")
    return circuit


class _Subject(NamedTuple):
    """A run's input circuit (None for "qpt"), target ket and report gate counts."""
    circuit: Optional[Circuit]
    ket: np.ndarray
    gate_counts: Mapping[str, int]


@functools.lru_cache(maxsize=None)
def _subject(strategy: DecompositionStrategy, preparations: Hashable) -> _Subject:
    """The read-only ``_Subject`` of ``strategy``'s Toffoli on ``preparations``, once per process.

    For a QST input, a ``StateKind``: its native preparation, U|in>, and the
    counts of the Toffoli after it. For "qpt", whose probes ``product_states``
    builds: no circuit, the Choi ket of U, and the counts of the Toffoli
    alone, since the probes vary per job.
    """
    u, toffoli = toffoli_unitary(DEFAULT_CONTROLS, DEFAULT_TARGET), _toffoli(strategy)
    if preparations == "qpt":
        circuit, ket, full = None, choi_ket_of_unitary(u), toffoli
    else:
        circuit = prepare_state(preparations)
        ket, full = u @ target_state(preparations), circuit.concat(toffoli)
    return _Subject(circuit, _read_only(ket), MappingProxyType({
        "toffoli_two_qubit": toffoli.two_qubit_count(), "toffoli_depth": toffoli.depth(),
        "circuit_two_qubit": full.two_qubit_count(), "circuit_depth": full.depth()}))


# -- measurement ---------------------------------------------------------------

def _distributions(preparations: np.ndarray, gate: Circuit, nm: NoiseModel) -> np.ndarray:
    """Exact outcome distributions of ``gate`` after each preparation, shape
    (preparations, 27 settings, 8 outcomes), settings in ``qst_settings`` order.

    One ``run_density`` evolves ``gate`` once, under ``nm``, on the (8, 8, P)
    stack of prepared states. Every setting's distribution (rotation circuit,
    readout relaxation, readout confusion) is read off one ``readout_map`` of
    ``setting_alphabet()``, the map the estimator inverts under ``NOISELESS``.
    """
    table = readout_map(setting_alphabet(), 3, nm)
    return setting_distributions(run_density(gate, nm, preparations), table)


#: exact tables ``_table`` keeps: a model runs 4 inputs (GHZ, W, UNIFORM and "qpt") on the
#: one native strategy, so 4 calibration models and ``NOISELESS`` need 20; a QPT entry, table
#: and draw form, is 221 KB
_TABLES = 20


@functools.lru_cache(maxsize=_TABLES)
def _table(nm: NoiseModel, strategy: DecompositionStrategy,
           preparations: Hashable) -> Tuple[np.ndarray, np.ndarray]:
    """The exact outcome table of ``strategy``'s Toffoli under ``nm`` and its ``draw_form``,
    both read-only, of shape (preparations, 27, 8).

    ``preparations`` names the prepared states by value: a ``StateKind``, whose
    input circuit, read from ``_subject``, runs whole on the register, or "qpt",
    the 64 probe states of ``product_states``. The strategy names the Toffoli,
    whose 44 gates would cost ~11 us a call to hash.
    """
    if preparations == "qpt":
        prepared = product_states(probe_alphabet(), 3, nm)
    else:
        prepared = run_density(_subject(strategy, preparations).circuit, nm)[..., None]
    table = _read_only(_distributions(prepared, _toffoli(strategy), nm))
    return table, draw_form(table)


def _frequencies(tables: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """The outcome frequencies of a run's tables: counts divided by the shots, or the exact
    distributions themselves."""
    return tables if cfg.exact_probabilities else tables / cfg.shots_per_setting


def _run(cfg: ExperimentConfig, kind: str, preparations: Hashable,
         estimate: Callable[[Iterator[np.ndarray]], np.ndarray]) -> Report:
    """The timed ``kind`` report of the Toffoli under ``cfg.noise_model()`` on the
    ``preparations`` that ``_table`` and ``_subject`` name.

    Every repeat's table is the exact table itself when
    ``cfg.exact_probabilities``, otherwise repeat r's counts, ``draws`` of the
    draw form seeded (master_seed, r). ``estimate`` takes those tables, lazily
    and in repeat order, and hands their ``_frequencies`` to the estimator. It
    returns the (repeats, d, d) stack of their estimates, states or Choi
    matrices, and one ``state_fidelity`` call scores it against the target ket.
    """
    start = time.perf_counter()
    subject = _subject(cfg.strategy, preparations)
    table, form = _table(cfg.noise_model(), cfg.strategy, preparations)
    if cfg.exact_probabilities:
        tables = itertools.repeat(table, cfg.repeats)
    else:
        seeds = ((cfg.master_seed, repeat) for repeat in range(cfg.repeats))
        tables = draws(form, cfg.shots_per_setting, seeds)
    fidelities = tuple(state_fidelity(estimate(tables), subject.ket).tolist())
    return Report(schema_version=REPORT_SCHEMA_VERSION, kind=kind, fidelities=fidelities,
                  gate_counts=dict(subject.gate_counts), config=cfg, tool_version=__version__,
                  wall_seconds=time.perf_counter() - start,
                  created_at=datetime.now(timezone.utc).isoformat())


def run_qst_experiment(cfg: ExperimentConfig) -> Report:
    """State tomography of the Toffoli output for the configured input state (27 jobs)."""
    # the repeats' counts are stacked first, then divided in one go
    return _run(cfg, "qst", cfg.input_state, lambda tables: qst_reconstruct(
        _frequencies(np.concatenate(tuple(tables)), cfg), 3))


def run_qpt_experiment(cfg: ExperimentConfig) -> Report:
    """Process tomography of the configured Toffoli realization (k=3, 1728 jobs).

    The jobs are the (probe, setting) cells, probe-major: the 64 probes in
    ``itertools.product(PROBE_LABELS, repeat=3)`` order, each with the 27
    settings in ``qst_settings`` order.
    """
    # the probes are constant, so one marker names them
    return _run(cfg, "qpt", "qpt", lambda tables: np.stack(
        [qpt_reconstruct(_frequencies(table, cfg), 3) for table in tables]))


# -- report files ------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    """``dataclasses.asdict(report)`` without its deep copy, at a tenth of its cost, the
    config's enums by value.

    Each field's own value, off ``vars`` in field order, except that the gate
    counts are copied and the config becomes a new dict: the rest are numbers,
    strings and a tuple of floats, which nothing can change.
    """
    echo = {name: v.value if isinstance(v, Enum) else v for name, v in vars(report.config).items()}
    return dict(vars(report), gate_counts=dict(report.gate_counts), config=echo)


def _json_check(hint) -> Callable[[object], bool]:
    """A check of whether a loaded JSON value has the type ``hint`` of a ``Report`` field.

    Built once per field, so a load does not walk the annotations again."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:  # Tuple[X, ...], a JSON array
        item = _json_check(args[0])
        return lambda v: type(v) is list and all(map(item, v))
    if origin is dict:
        item = _json_check(args[1])
        return lambda v: type(v) is dict and all(map(item, v.values()))
    if hint is float:
        return lambda v: type(v) in (int, float)  # not bool, which JSON's true loads as
    return lambda v: type(v) is hint


#: the one table of each report field's type, the ``Report`` annotations, as checks, in
#: field order
_REPORT_CHECKS = {name: _json_check(hint) for name, hint in get_type_hints(Report).items()}


def report_from_dict(payload: dict) -> Report:
    """The ``Report`` of a schema v1 to v4 payload, every layout through this one path.

    A payload keeps only the fields a report has, so an older layout loads
    equal to the same run's v4 report: what it also stored (the mean and sd,
    the job count and total, average gate fidelities, hardware reference, raw
    TP deviation) is dropped unread. The config echo must hold every config
    field, and ``ExperimentConfig`` rebuilds it, checking each; other keys are
    dropped too. A missing field, one of the wrong JSON type, or one that
    disagrees with the rest (the kind, the config, its repeats against the
    fidelity count, a gate count below 0) is an error that names it.
    """
    payload = dict(payload)
    version = payload.get("schema_version")
    # an integer, not merely equal to one: True == 1 in Python
    if type(version) is not int or version not in range(1, REPORT_SCHEMA_VERSION + 1):
        raise SchemaError(f"unknown schema_version {version!r} "
                          f"(expected 1 to {REPORT_SCHEMA_VERSION})")
    # a missing field reads as None, which no field's type check passes
    payload = {name: payload.get(name) for name in _REPORT_CHECKS}
    payload["schema_version"] = REPORT_SCHEMA_VERSION
    try:  # every config field, each checked as a run's config is
        payload["config"] = ExperimentConfig(**{name: payload["config"][name]
                                                for name in _CONFIG_FIELDS})
    except KeyError as exc:
        raise SchemaError(f"field 'config' must be a full config echo, missing {exc}") from None
    except (TypeError, UsageError) as exc:
        raise SchemaError(f"field 'config' must be a valid config echo ({exc})") from None
    for name, check in _REPORT_CHECKS.items():
        if not check(payload[name]):
            # the annotation as written: this module postpones annotations
            raise SchemaError(f"field {name!r} must be {Report.__annotations__[name]}, "
                              f"got {payload[name]!r}")
    payload["fidelities"] = tuple(payload["fidelities"])
    report = Report(**payload)
    repeats = len(report.fidelities)
    for name, ok, expected in (
            ("kind", report.kind in _JOBS, "'qst' or 'qpt'"),
            ("config.repeats", report.config.repeats == repeats, f"{repeats}, the fidelity count"),
            ("gate_counts", min(report.gate_counts.values(), default=0) >= 0, "non-negative")):
        if not ok:
            value = attrgetter(name)(report)
            raise SchemaError(f"field {name!r} must be {expected}, got {value!r}")
    return report


def emit_report(report: Report, fmt: str, path: Union[str, Path]) -> Path:
    """Write a report as versioned JSON or per-repeat CSV rows; a QPT report's rows also
    give each repeat's average gate fidelity."""
    path = Path(path)
    fmt = fmt.lower()
    try:
        if fmt == "json":
            path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
        elif fmt == "csv":
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                qpt = report.kind == "qpt"
                writer.writerow(["repeat", "fidelity"] + ["average_gate_fidelity"] * qpt)
                for i, f in enumerate(report.fidelities):
                    writer.writerow([i, repr(f)] + [repr(average_gate_fidelity(f, 3))] * qpt)
        else:
            raise UsageError(f"unknown report format {fmt!r} (json or csv)")
    except OSError as exc:
        raise SchemaError(f"cannot write report to {path}: {exc}") from exc
    return path


def load_report(path: Union[str, Path]) -> Report:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read report {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return report_from_dict(payload)
    except (KeyError, SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not a valid report ({exc})") from exc
