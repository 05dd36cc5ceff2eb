"""Calibration-driven noise: closed-form channel superoperators and the device noise model.

Channel placement convention (documented, deterministic): for every gate the
simulator applies the ideal unitary, then a depolarizing channel sized by the
gate's average error rate on the gate's own qubits, then thermal relaxation
on each participating qubit for the gate's duration. RZ is a virtual frame
update and acquires no noise. Idle qubits do not relax (no scheduling model).
Before a measurement every qubit relaxes for its readout length, and the
readout confusion then acts on the outcome distribution. A run without
readout error is modelled by zero readout confusion, P(1|0) = P(0|1) = 0,
not by a switch in the simulator. That is not perfect readout: each qubit
still relaxes for its readout length. Only a model with zero confusion and
zero readout lengths, such as ``NOISELESS``, reads out perfectly.

The simulator only uses a channel as its row-major superoperator (Wood,
Biamonte & Cory, arXiv:1111.6950), so each builder below returns that matrix
in closed form and checks that it preserves the trace. The operator-sum
(Kraus) forms of the same channels live in the test suite, as their oracle.

Noise-free is not a separate backend: it is ``NOISELESS``, the model with no
relaxation, no gate error, zero durations and perfect readout, so every
channel above is the identity and the simulator runs one evolution and one
measurement map in both modes. T1 = T2 = inf is not a special case either:
the relaxation formula gives the identity there exactly, since t/inf and
1/inf are exactly 0.

The simulator compiles each distinct gate of a model to one local channel,
the superoperator on the gate's own wires; the placement order is unchanged.
The one-qubit layers (probe preparations and measurement rotations) apply
those channels per qubit, and the whole-register evolution applies them one
gate at a time, in circuit order. Readout maps are rebuilt per table;
readout relaxation runs once per qubit per readout map.

A model is a value: its numbers are frozen, its gate maps read-only, and it
equals and hashes like any other model with the same numbers. So what is
compiled from a model is a pure function of it, and every memo is a
``functools.lru_cache`` keyed by the model: the gate channels in
:mod:`ccxlab.simulator`, keyed by (gate, model), and each run's exact
outcome table and its draw form in :mod:`ccxlab.experiments`. A model built
afresh from the same numbers, such as a calibration file read again, finds
the entries of an earlier equal one. Both caches are bounded, so neither
``NOISELESS``, which lives as long as the process, nor a sweep over distinct
numbers grows memory without end. No simulation reads a qubit's frequency,
anharmonicity or readout error, so they are not among a model's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from .circuits import MAX_QUBITS
from .errors import CcxlabError, SchemaError, UsageError
from .gates import GATE_ARITY, Gate

#: fallback durations (ns) when a calibration file does not provide them
DEFAULT_GATE_DURATIONS_NS = {"ECR": 533.0, "SX": 57.0, "X": 57.0, "RZ": 0.0, "ID": 0.0}

def _check_trace_preserving(superop: np.ndarray) -> np.ndarray:
    """``superop``, if it is finite and vec(I)^T S = vec(I)^T (Tr E(rho) = Tr rho) within 1e-8."""
    dim = math.isqrt(superop.shape[0])
    # vec(I) is 1 at the indices i * (dim + 1) and 0 elsewhere
    deviation = superop[::dim + 1].sum(axis=0)
    deviation[::dim + 1] -= 1.0
    dev = abs(deviation).max()
    if not (dev <= 1e-8 and np.isfinite(superop).all()):
        raise CcxlabError(f"channel is not trace preserving (dev {dev:.3e})")
    return superop


def thermal_relaxation_channel(duration_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """Superoperator of amplitude damping for T1 composed with pure dephasing for T2.

    gamma = 1 - exp(-t/T1); pure dephasing at rate 1/T2 - 1/(2 T1) flips the
    phase with probability p_z. The coherences keep sqrt(1 - gamma) (1 - 2 p_z).
    T = inf needs no case of its own: t/inf is 0 and 1/inf is 0 exactly, so
    infinite coherence gives the identity from the same formula, bit for bit,
    as does a zero duration.
    """
    if not 0 <= duration_ns < math.inf:
        raise UsageError(f"duration must be finite and nonnegative, got {duration_ns}")
    if not 0 < t2_us <= 2 * t1_us:
        raise SchemaError(f"need 0 < T2 <= 2*T1, got T1={t1_us}, T2={t2_us}")
    t_us = duration_ns / 1000.0
    gamma = 1.0 - math.exp(-t_us / t1_us)
    rate_phi = 1.0 / t2_us - 0.5 / t1_us
    p_z = (1.0 - math.exp(-t_us * max(rate_phi, 0.0))) / 2.0
    coherence = math.sqrt(1 - gamma) * (1 - 2 * p_z)
    # row-major vec: index 0 is |0><0|, 1 and 2 the coherences, 3 is |1><1|
    superop = np.zeros((4, 4), dtype=complex)
    superop.flat[::5] = 1.0, coherence, coherence, 1.0 - gamma  # the diagonal
    superop[0, 3] = gamma
    return _check_trace_preserving(superop)


def depolarizing_channel(err: float, dim: int) -> np.ndarray:
    """Superoperator of the depolarizing channel whose average gate fidelity equals 1 - err.

    E(rho) = (1-lam) rho + lam Tr(rho) I/dim with lam = err * dim / (dim - 1),
    so S = (1-lam) I + (lam/dim) vec(I) vec(I)^T.
    """
    if dim < 2 or dim & (dim - 1):
        raise UsageError(f"dim must be a power of two >= 2, got {dim}")
    if not err >= 0:
        raise UsageError(f"error rate must be nonnegative, got {err}")
    if err >= 1 - 1 / dim:
        raise CcxlabError(f"err {err} >= 1 - 1/dim for dim {dim}")
    lam = err * dim / (dim - 1)
    superop = (1 - lam) * np.eye(dim * dim, dtype=complex)
    superop[::dim + 1, ::dim + 1] += lam / dim  # vec(I) vec(I)^T: the indices i * (dim + 1)
    return _check_trace_preserving(superop)


@dataclass(frozen=True)
class QubitCalibration:
    """The numbers of one qubit that the simulator reads: relaxation and readout."""

    t1_us: float
    t2_us: float
    prob_meas0_prep1: float = 0.0
    prob_meas1_prep0: float = 0.0
    readout_length_ns: float = 0.0

    def __post_init__(self):
        if not (self.t1_us > 0 and 0 < self.t2_us <= 2 * self.t1_us):
            raise SchemaError(
                f"need 0 < T2 <= 2*T1, got T1={self.t1_us} us, T2={self.t2_us} us")
        for name in ("prob_meas0_prep1", "prob_meas1_prep0"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise UsageError(f"{name}={v} outside [0, 1]")
        if not 0 <= self.readout_length_ns < math.inf:
            raise UsageError(f"readout_length_ns={self.readout_length_ns} is not finite "
                             "and nonnegative")


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit relaxation/readout data plus per-gate error and duration."""

    qubit_cal: Tuple[QubitCalibration, ...]
    gate_error: Mapping[str, float] = field(default_factory=dict)
    gate_duration: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # read-only copies: a model's numbers are its key in every cache compiled from it
        object.__setattr__(self, "gate_error", MappingProxyType(dict(self.gate_error)))
        object.__setattr__(self, "gate_duration", MappingProxyType(dict(self.gate_duration)))
        for name, v in self.gate_error.items():
            if not v >= 0.0:  # also NaN, which no bound below would catch
                raise UsageError(f"gate error {name}={v} is not a nonnegative number")
            # the depolarizing channel of a k-qubit gate realises errors below 1 - 1/2^k
            bound = 1 - 0.5 ** GATE_ARITY[name] if name in GATE_ARITY else 1.0
            if v >= bound:
                raise CcxlabError(f"gate error {name}={v} >= {bound}, which no "
                                  "depolarizing channel on the gate realises")
        for name, v in self.gate_duration.items():
            if not 0 <= v < math.inf:
                raise UsageError(f"gate duration {name}={v} is not finite and nonnegative")
        if self.gate_error.get("RZ", 0.0) != 0.0 or self.gate_duration.get("RZ", 0.0) != 0.0:
            raise UsageError("RZ is virtual: zero duration and zero error")

    def __hash__(self) -> int:
        # over the numbers that equality compares: the gate maps as sorted items
        return hash((self.qubit_cal, tuple(sorted(self.gate_error.items())),
                     tuple(sorted(self.gate_duration.items()))))

    def calibration(self, qubit: int) -> QubitCalibration:
        if qubit >= len(self.qubit_cal):
            raise UsageError(f"no calibration for qubit {qubit}")
        return self.qubit_cal[qubit]

    # a Gate is a str equal to, and hashing like, its name, so either looks the maps up
    def error_for(self, gate: Gate | str) -> float:
        return float(self.gate_error.get(gate, 0.0))

    def duration_for(self, gate: Gate | str) -> float:
        return float(self.gate_duration.get(gate, DEFAULT_GATE_DURATIONS_NS.get(gate, 0.0)))


#: the model of a noise-free run: T1 = T2 = inf, no gate error, zero gate and
#: readout durations and perfect readout on every qubit a circuit can have
NOISELESS = NoiseModel((QubitCalibration(t1_us=math.inf, t2_us=math.inf),) * MAX_QUBITS,
                       gate_duration={name: 0.0 for name in DEFAULT_GATE_DURATIONS_NS})


def scale_noise_model(nm: NoiseModel, factor: float) -> NoiseModel:
    """Scale the gate errors, readout confusion and relaxation rates 1/T1, 1/T2 by ``factor``.

    ``factor=0`` yields a noiseless model; ``factor>1`` degrades everything.
    ``factor=1`` gives a model equal to ``nm``, number for number: each time
    divided by 1.0 and each probability and error multiplied by it is exact,
    and no probability exceeds 1 to be clipped.
    """
    if not factor >= 0:
        raise UsageError(f"scale factor must be nonnegative, got {factor}")

    def scale_time(t_us: float) -> float:
        return t_us / factor if factor else math.inf

    def scale_prob(p: float) -> float:
        return min(p * factor, 1.0)

    cal = tuple(
        replace(c, t1_us=scale_time(c.t1_us), t2_us=scale_time(c.t2_us),
                prob_meas0_prep1=scale_prob(c.prob_meas0_prep1),
                prob_meas1_prep0=scale_prob(c.prob_meas1_prep0))
        for c in nm.qubit_cal
    )
    errors = {name: v * factor for name, v in nm.gate_error.items()}
    return NoiseModel(cal, errors, dict(nm.gate_duration))
