"""The paper's three input states and the tomography probe preparations.

``StateKind`` names the inputs that state tomography scores the Toffoli on:
GHZ, W and the uniform superposition. ``prepare_state(kind)`` is the native
circuit preparing one from |0...0> and ``target_state(kind)`` its exact
ket. Process tomography prepares the products of the per-qubit probes
``PROBE_LABELS`` with ``probe_circuit(labels)``, whose exact ket is
``probe_state(labels)``.

Builders write logical circuits (H, S, X, CNOT, and the native RY words of
the W state) and lower them with ``synthesis.to_native``, so every prepared
circuit is over the native gate set and runs on either simulator backend
unchanged. A leading RZ on a wire still in |0> is prepended to cancel the
global phase accumulated by the RZ/SX rewrites; the produced state then
matches the target amplitudes exactly, not merely up to phase. That check
runs a state vector, so each probe circuit, which process tomography needs
64 of per run, is built once per process; circuits are immutable.
"""

from __future__ import annotations

import cmath
import functools
import math
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .circuits import Circuit
from .errors import CcxlabError, InvalidLabelError
from .gates import cnot, h, rz, s, x
from .simulator import run_statevector
from .synthesis import native_ry, to_native

PI = math.pi

PROBE_LABELS = ("0", "1", "+", "+i")

_PROBE_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
}
#: the logical gates preparing each probe from |0>; |+i> = S H |0>
_PROBE_GATES = {"0": (), "1": (x,), "+": (h,), "+i": (h, s)}


class StateKind(str, Enum):
    GHZ = "GHZ"
    W = "W"
    UNIFORM = "UNIFORM"


# -- analytic targets ----------------------------------------------------------

def ghz_state() -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    return v


def w_state() -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1 / math.sqrt(3)
    return v


def uniform_state() -> np.ndarray:
    return np.full(8, 1 / math.sqrt(8), dtype=complex)


def probe_state(labels: Sequence[str]) -> np.ndarray:
    """Product state of per-qubit probes, labels[0] on qubit 0."""
    out = np.array([1.0 + 0j])
    for lab in reversed(list(labels)):
        if lab not in _PROBE_KETS:
            raise InvalidLabelError(f"probe label {lab!r} not in {PROBE_LABELS}")
        out = np.kron(out, _PROBE_KETS[lab])
    return out


# -- circuit builders ----------------------------------------------------------

def _fix_global_phase(circuit: Circuit, target: np.ndarray) -> Circuit:
    """Prepend RZ(2*delta) on qubit 0 (still |0>) to cancel the phase delta."""
    overlap = np.vdot(target, run_statevector(circuit))
    if abs(abs(overlap) - 1.0) > 1e-9:
        raise CcxlabError("state builder does not reach its target state")
    delta = cmath.phase(overlap)
    if abs(delta) < 1e-14:
        return circuit
    fixed = Circuit(circuit.num_qubits, (rz(2 * delta, 0),) + circuit.gates)
    return fixed


def ghz_circuit() -> Circuit:
    c = to_native(Circuit(3, (h(0), cnot(0, 1), cnot(1, 2))))
    return _fix_global_phase(c, ghz_state())


def w_circuit() -> Circuit:
    """Split amplitude 1/sqrt(3) onto qubit 2, a Bell-like pair on (1, 0)."""
    theta = 2 * math.acos(math.sqrt(2.0 / 3.0))
    # rotate qubit 1 by pi/2 only when qubit 2 is |0>: X-conjugated controlled-RY
    gates = (native_ry(theta, 2) + [x(2)] + native_ry(PI / 4, 1) + [cnot(2, 1)]
             + native_ry(-PI / 4, 1) + [cnot(2, 1), x(2), cnot(1, 0), cnot(2, 0), x(0)])
    c = to_native(Circuit(3, tuple(gates)))
    return _fix_global_phase(c, w_state())


def uniform_circuit() -> Circuit:
    c = to_native(Circuit(3, tuple(h(q) for q in range(3))))
    return _fix_global_phase(c, uniform_state())


@functools.lru_cache(maxsize=None)
def probe_circuit(labels: Tuple[str, ...]) -> Circuit:
    target = probe_state(labels)  # raises InvalidLabelError on an unknown label
    gates = tuple(gate(q) for q, lab in enumerate(labels) for gate in _PROBE_GATES[lab])
    return _fix_global_phase(to_native(Circuit(len(labels), gates)), target)


#: per kind, the native circuit builder and the exact target vector it prepares
_STATES = {
    StateKind.GHZ: (ghz_circuit, ghz_state),
    StateKind.W: (w_circuit, w_state),
    StateKind.UNIFORM: (uniform_circuit, uniform_state),
}


def prepare_state(kind: StateKind | str) -> Circuit:
    """Native circuit preparing ``kind`` from |0...0>."""
    return _STATES[StateKind(kind)][0]()


def target_state(kind: StateKind | str) -> np.ndarray:
    """Exact state vector that ``prepare_state(kind)`` prepares."""
    return _STATES[StateKind(kind)][1]()
