"""Calibration-driven noise: closed-form channel superoperators and the device noise model.

Channel placement convention (documented, deterministic): for every gate the
simulator applies the ideal unitary, then a depolarizing channel sized by the
gate's average error rate on the gate's own qubits, then thermal relaxation
on each participating qubit for the gate's duration. RZ is a virtual frame
update and acquires no noise. Idle qubits do not relax (no scheduling model).
Before a measurement every qubit relaxes for its readout length, and the
readout confusion then acts on the outcome distribution. A model whose
qubits have zero confusion, P(1|0) = P(0|1) = 0, reads out perfectly: that
is how a run without readout error is modelled, not a switch in the simulator.

The simulator only uses a channel as its row-major superoperator (Wood,
Biamonte & Cory, arXiv:1111.6950), so each builder below returns that matrix
in closed form and checks that it preserves the trace. The operator-sum
(Kraus) forms of the same channels live in the test suite, as their oracle.

Noise-free is not a separate backend: it is ``NOISELESS``, the model with no
relaxation, no gate error, zero durations and perfect readout, so every
channel above is the identity and the simulator runs one evolution and one
measurement map in both modes.

The simulator compiles each distinct gate of a model to one local channel,
the superoperator on the gate's own wires, and keeps it in the model's own
cache, ``NoiseModel.compiled``; the placement order is unchanged. The
one-qubit layers (probe preparations and measurement rotations) apply those
channels per qubit, and the whole-register evolution multiplies them into
one matrix per fused block. So the builders run once per distinct (gate,
wires, parameters) of a model. Blocks and readout maps are rebuilt per use;
readout relaxation runs once per qubit per readout map. Besides the gate
channels, the cache holds only each experiment run's exact outcome table
(see :mod:`ccxlab.experiments`), so a table's blocks and readout map are
built once per table. A model built from other numbers, such as a
``scale_noise_model`` result, starts with an empty cache; ``NOISELESS`` is
one constant, so its cache lives as long as the process: one channel per
distinct gate it ran (256 entries for a two-qubit gate) and at most one
table per strategy and input (4 strategies x {QPT, GHZ, W, UNIFORM}, under
0.5 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, Mapping, Tuple, TypeVar

import numpy as np

from .circuits import MAX_QUBITS
from .errors import (
    CcxlabError,
    CoherenceViolation,
    ErrTooLargeError,
    MissingCalibrationError,
)
from .gates import GATE_ARITY, Gate

#: fallback durations (ns) when a calibration file does not provide them
DEFAULT_GATE_DURATIONS_NS = {"ECR": 533.0, "SX": 57.0, "X": 57.0, "RZ": 0.0, "ID": 0.0}

_T = TypeVar("_T")


def _check_trace_preserving(superop: np.ndarray) -> np.ndarray:
    """``superop``, if it is finite and vec(I)^T S = vec(I)^T (Tr E(rho) = Tr rho) within 1e-8."""
    dim = math.isqrt(superop.shape[0])
    # vec(I) is 1 at the indices i * (dim + 1) and 0 elsewhere
    dev = np.max(np.abs(superop[::dim + 1].sum(axis=0) - np.eye(dim).reshape(-1)))
    if not (dev <= 1e-8 and np.isfinite(superop).all()):
        raise CcxlabError(f"channel is not trace preserving (dev {dev:.3e})")
    return superop


def thermal_relaxation_channel(duration_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """Superoperator of amplitude damping for T1 composed with pure dephasing for T2.

    gamma = 1 - exp(-t/T1); pure dephasing at rate 1/T2 - 1/(2 T1) flips the
    phase with probability p_z. The coherences keep sqrt(1 - gamma) (1 - 2 p_z).
    """
    if not 0 <= duration_ns < math.inf:
        raise ValueError(f"duration must be finite and nonnegative, got {duration_ns}")
    if not (0 < t2_us <= 2 * t1_us) and not (math.isinf(t1_us) and math.isinf(t2_us)):
        raise CoherenceViolation(f"need 0 < T2 <= 2*T1, got T1={t1_us}, T2={t2_us}")
    t_us = duration_ns / 1000.0
    gamma = 1.0 - math.exp(-t_us / t1_us) if not math.isinf(t1_us) else 0.0
    rate_phi = (1.0 / t2_us if not math.isinf(t2_us) else 0.0) \
        - (0.5 / t1_us if not math.isinf(t1_us) else 0.0)
    p_z = (1.0 - math.exp(-t_us * max(rate_phi, 0.0))) / 2.0
    coherence = math.sqrt(1 - gamma) * (1 - 2 * p_z)
    # row-major vec: index 0 is |0><0|, 1 and 2 the coherences, 3 is |1><1|
    superop = np.diag(np.array([1.0, coherence, coherence, 1.0 - gamma], dtype=complex))
    superop[0, 3] = gamma
    return _check_trace_preserving(superop)


def depolarizing_channel(err: float, dim: int) -> np.ndarray:
    """Superoperator of the depolarizing channel whose average gate fidelity equals 1 - err.

    E(rho) = (1-lam) rho + lam Tr(rho) I/dim with lam = err * dim / (dim - 1),
    so S = (1-lam) I + (lam/dim) vec(I) vec(I)^T.
    """
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dim must be a power of two >= 2, got {dim}")
    if not err >= 0:
        raise ValueError(f"error rate must be nonnegative, got {err}")
    if err >= 1 - 1 / dim:
        raise ErrTooLargeError(f"err {err} >= 1 - 1/dim for dim {dim}")
    lam = err * dim / (dim - 1)
    superop = (1 - lam) * np.eye(dim * dim, dtype=complex)
    superop[::dim + 1, ::dim + 1] += lam / dim  # vec(I) vec(I)^T: the indices i * (dim + 1)
    return _check_trace_preserving(superop)


@dataclass(frozen=True)
class QubitCalibration:
    t1_us: float
    t2_us: float
    frequency_ghz: float = 0.0
    anharmonicity_ghz: float = 0.0
    prob_meas0_prep1: float = 0.0
    prob_meas1_prep0: float = 0.0
    readout_error: float = 0.0
    readout_length_ns: float = 0.0

    def __post_init__(self):
        if not (self.t1_us > 0 and 0 < self.t2_us <= 2 * self.t1_us):
            raise CoherenceViolation(
                f"need 0 < T2 <= 2*T1, got T1={self.t1_us} us, T2={self.t2_us} us")
        for name in ("prob_meas0_prep1", "prob_meas1_prep0", "readout_error"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if not 0 <= self.readout_length_ns < math.inf:
            raise ValueError(f"readout_length_ns={self.readout_length_ns} is not finite "
                             "and nonnegative")
        for name in ("frequency_ghz", "anharmonicity_ghz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} is not finite")


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit relaxation/readout data plus per-gate error and duration."""

    qubit_cal: Tuple[QubitCalibration, ...]
    gate_error: Mapping[str, float] = field(default_factory=dict)
    gate_duration: Mapping[str, float] = field(default_factory=dict)
    #: what the simulator compiled from this model, filled on first use
    _compiled: Dict[Hashable, object] = field(default_factory=dict, init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gate_error", dict(self.gate_error))
        object.__setattr__(self, "gate_duration", dict(self.gate_duration))
        for name, v in self.gate_error.items():
            if not v >= 0.0:  # also NaN, which no bound below would catch
                raise ValueError(f"gate error {name}={v} is not a nonnegative number")
            # the depolarizing channel of a k-qubit gate realises errors below 1 - 1/2^k
            bound = 1 - 0.5 ** GATE_ARITY[name] if name in GATE_ARITY else 1.0
            if v >= bound:
                raise ErrTooLargeError(f"gate error {name}={v} >= {bound}, which no "
                                       "depolarizing channel on the gate realises")
        for name, v in self.gate_duration.items():
            if not 0 <= v < math.inf:
                raise ValueError(f"gate duration {name}={v} is not finite and nonnegative")
        if self.gate_error.get("RZ", 0.0) != 0.0 or self.gate_duration.get("RZ", 0.0) != 0.0:
            raise ValueError("RZ is virtual: zero duration and zero error")

    def calibration(self, qubit: int) -> QubitCalibration:
        if qubit >= len(self.qubit_cal):
            raise MissingCalibrationError(f"no calibration for qubit {qubit}")
        return self.qubit_cal[qubit]

    def error_for(self, gate: Gate | str) -> float:
        name = gate.value if isinstance(gate, Gate) else gate
        return float(self.gate_error.get(name, 0.0))

    def duration_for(self, gate: Gate | str) -> float:
        name = gate.value if isinstance(gate, Gate) else gate
        if name in self.gate_duration:
            return float(self.gate_duration[name])
        return DEFAULT_GATE_DURATIONS_NS.get(name, 0.0)

    def compiled(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()`` the first time ``key`` is asked for; the stored result after that.

        Two kinds of entry live here: the simulator's local channel of each gate,
        keyed ("channel", gate), and an experiment run's exact outcome table,
        keyed ("table", strategy, preparations). The cache lives and dies with
        this instance, so it never outlives the numbers it was compiled from.
        """
        if key not in self._compiled:
            self._compiled[key] = build()
        return self._compiled[key]


#: the model of a noise-free run: T1 = T2 = inf, no gate error, zero gate and
#: readout durations and perfect readout on every qubit a circuit can have
NOISELESS = NoiseModel((QubitCalibration(t1_us=math.inf, t2_us=math.inf),) * MAX_QUBITS,
                       gate_duration={name: 0.0 for name in DEFAULT_GATE_DURATIONS_NS})


def scale_noise_model(nm: NoiseModel, factor: float) -> NoiseModel:
    """Scale all error rates and the relaxation rates 1/T1, 1/T2 by ``factor``.

    ``factor=0`` yields a noiseless model; ``factor>1`` degrades everything.
    """
    if not factor >= 0:
        raise ValueError(f"scale factor must be nonnegative, got {factor}")

    def scale_time(t_us: float) -> float:
        return t_us / factor if factor else math.inf

    def scale_prob(p: float) -> float:
        return min(p * factor, 1.0)

    cal = tuple(
        replace(c, t1_us=scale_time(c.t1_us), t2_us=scale_time(c.t2_us),
                prob_meas0_prep1=scale_prob(c.prob_meas0_prep1),
                prob_meas1_prep0=scale_prob(c.prob_meas1_prep0),
                readout_error=scale_prob(c.readout_error))
        for c in nm.qubit_cal
    )
    errors = {name: v * factor for name, v in nm.gate_error.items()}
    return NoiseModel(cal, errors, dict(nm.gate_duration))
