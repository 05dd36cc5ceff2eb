"""Toffoli decomposition strategies, the lowering pass, and equivalence certification.

Four builders produce circuits that all realize the doubly-controlled-X
permutation, certified against the dense reference unitary up to a global
phase:

* ``FULL_6CNOT`` — the textbook H/T ladder; assumes all-to-all connectivity.
* ``LNN_8CNOT`` — nearest-neighbor on a path. The doubly-controlled-Z core
  is a phase polynomial over the seven parities of three bits; a Gray-code
  CNOT walk visits all seven on path edges and restores the wires in eight
  CNOTs total.
* ``LNN_9CNOT_RZSX`` — nearest-neighbor, single-qubit gates restricted to
  {RZ, SX}. Uses a nine-CNOT walk over the same parities. Exhaustive search
  (``test_nine_cnots_is_the_shortest_odd_parity_walk`` in
  tests/test_synthesis.py) shows 9 is the shortest odd-length
  nearest-neighbor CNOT word that restores the wires while visiting every
  parity, so no CNOT here is a removable pair.
* ``ECR_NATIVE`` — ``to_native(LNN_8CNOT)``, one ECR per CNOT.

``to_native`` is the one lowering pass to the device gate set {ECR, RZ, SX,
X, ID}: it rewrites each gate through a rule table (H, T, TDG, S, SDG to
RZ/SX words; CNOT to one ECR), then ``peephole_merge``s. The CNOT rule is
exact (global phase 1):
``CX(c,t) = RZ(pi/2)_c . SX_t . ECR(c,t) . X_c`` as matrices, i.e. the
circuit X(c), ECR(c,t), SX(t), RZ(pi/2)(c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circuits import Circuit, CouplingGraph, circuit_unitary
from .errors import DimensionMismatchError, NonPathQubitsError
from .gates import Gate, GateDef, cnot, ecr, h, rz, sx, t, tdg, x

PI = math.pi


class DecompositionStrategy(str, Enum):
    FULL_6CNOT = "FULL_6CNOT"
    LNN_8CNOT = "LNN_8CNOT"
    LNN_9CNOT_RZSX = "LNN_9CNOT_RZSX"
    ECR_NATIVE = "ECR_NATIVE"


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    phase: complex
    max_abs_error: float
    gate_count_2q: int = 0
    depth: int = 0


def toffoli_unitary(controls: Sequence[int], target: int, num_qubits: int = 3) -> np.ndarray:
    """Reference permutation: flip ``target`` iff both controls are set, the CCX gate's
    matrix on the whole register. Roles that are not three distinct qubits of the register
    raise ``ValueError``."""
    return circuit_unitary(Circuit(num_qubits, (GateDef(Gate.CCX, (*controls, target)),)))


def equivalent_up_to_global_phase(u: np.ndarray, v: np.ndarray,
                                  tol: float = 1e-10) -> EquivalenceReport:
    """Anchor the phase on v's largest entry, then compare max-abs residual."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"shape mismatch {u.shape} vs {v.shape}")
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    ratio = u[idx] / v[idx] if abs(v[idx]) > 0 else 0.0
    if abs(ratio) < 1e-12:
        return EquivalenceReport(False, 1.0 + 0j, float(np.max(np.abs(u - v))))
    phase = ratio / abs(ratio)
    err = float(np.max(np.abs(u - phase * v)))
    return EquivalenceReport(err <= tol, complex(phase), err)


def certify_toffoli(circuit: Circuit, controls: Sequence[int], target: int,
                    tol: float = 1e-10) -> EquivalenceReport:
    ref = toffoli_unitary(controls, target, circuit.num_qubits)
    rep = equivalent_up_to_global_phase(circuit_unitary(circuit), ref, tol)
    return EquivalenceReport(rep.equivalent, rep.phase, rep.max_abs_error,
                             circuit.two_qubit_count(), circuit.depth())


# -- native single-qubit building blocks --------------------------------------

def native_h(q: int) -> List[GateDef]:
    """Hadamard over {RZ, SX}, up to global phase exp(-i pi/4)."""
    return [rz(PI / 2, q), sx(q), rz(PI / 2, q)]


def native_u3(theta: float, phi: float, lam: float, q: int) -> List[GateDef]:
    """Generic rotation as RZ(phi+pi) SX RZ(theta+pi) SX RZ(lam), up to phase."""
    return [rz(lam, q), sx(q), rz(theta + PI, q), sx(q), rz(phi + PI, q)]


def native_ry(theta: float, q: int) -> List[GateDef]:
    return native_u3(theta, 0.0, 0.0, q)


def cnot_to_ecr(control: int, target: int) -> Circuit:
    """CNOT on the native set with exactly one ECR; exact, global phase 1."""
    if control == target:
        raise ValueError("control and target must differ")
    n = max(control, target) + 1
    return Circuit(n, (x(control), ecr(control, target), sx(target), rz(PI / 2, control)))


def peephole_merge(circuit: Circuit) -> Circuit:
    """Fuse adjacent RZ-RZ on a wire, drop zero rotations and identities.

    RZ angles are summed; a rotation is dropped only when the angle is a
    multiple of 4*pi (RZ(2*pi) = -I carries a real global phase).
    """
    out: List[GateDef] = []
    last_on_wire = {}

    def drop_zero(angle: float) -> bool:
        return abs(math.remainder(angle, 4 * PI)) < 1e-12

    for g in circuit.gates:
        if g.name is Gate.ID:
            continue
        if g.name is Gate.RZ:
            q = g.qubits[0]
            prev = last_on_wire.get(q)
            if prev is not None and out[prev].name is Gate.RZ:
                merged = out[prev].params[0] + g.params[0]
                out[prev] = rz(merged, q)
                continue
            if drop_zero(g.params[0]):
                continue
        for q in g.qubits:
            last_on_wire[q] = len(out)
        out.append(g)
    cleaned = [g for g in out if not (g.name is Gate.RZ and drop_zero(g.params[0]))]
    return Circuit(circuit.num_qubits, tuple(cleaned))


#: each logical single-qubit gate as a word over {RZ, SX}
_RZ_SX_RULES = {
    Gate.H: native_h,
    Gate.T: lambda q: [rz(PI / 4, q)],
    Gate.TDG: lambda q: [rz(-PI / 4, q)],
    Gate.S: lambda q: [rz(PI / 2, q)],
    Gate.SDG: lambda q: [rz(-PI / 2, q)],
}
#: every logical gate that ``to_native`` rewrites
_NATIVE_RULES = {**_RZ_SX_RULES,
                 Gate.CNOT: lambda control, target: cnot_to_ecr(control, target).gates}


def _lower(circuit: Circuit, rules) -> Circuit:
    """Substitute each gate named in ``rules`` by its word, then ``peephole_merge``."""
    seq: List[GateDef] = []
    for g in circuit.gates:
        rule = rules.get(g.name)
        seq.extend(rule(*g.qubits) if rule else (g,))
    return peephole_merge(Circuit(circuit.num_qubits, tuple(seq)))


def to_native(circuit: Circuit) -> Circuit:
    """``circuit`` over the device gate set {ECR, RZ, SX, X}, equal up to global phase.

    A CCX has no rule and passes through; synthesize it with
    ``decompose_toffoli`` first.
    """
    return _lower(circuit, _NATIVE_RULES)


# -- path handling -------------------------------------------------------------

def _path_order(controls: Sequence[int], target: int,
                coupling: Optional[CouplingGraph]) -> Tuple[int, int, int]:
    """Order the triple as (end, middle, end) along the coupling path.

    Without an explicit graph the sorted triple is assumed to be a line.
    """
    triple = sorted((*controls, target))
    if coupling is None:
        if not (triple[1] - triple[0] == 1 and triple[2] - triple[1] == 1):
            raise NonPathQubitsError(
                f"qubits {triple} are not consecutive; pass a coupling graph "
                "if the hardware path differs")
        return triple[0], triple[1], triple[2]
    middles = [q for q in triple
               if all(coupling.has_edge(q, other) for other in triple if other != q)]
    if not middles:
        raise NonPathQubitsError(f"qubits {triple} do not form a path in the coupling graph")
    mid = middles[0]
    ends = sorted(q for q in triple if q != mid)
    return ends[0], mid, ends[1]


# -- strategy builders ---------------------------------------------------------

def _full_6cnot(controls, tgt, _coupling) -> Circuit:
    c1, c2 = controls
    n = max(c1, c2, tgt) + 1
    seq = [
        h(tgt),
        cnot(c2, tgt), tdg(tgt),
        cnot(c1, tgt), t(tgt),
        cnot(c2, tgt), tdg(tgt),
        cnot(c1, tgt),
        t(c2), t(tgt),
        cnot(c1, c2), h(tgt),
        t(c1), tdg(c2),
        cnot(c1, c2),
    ]
    return Circuit(n, tuple(seq))


def _ccz_8cnot(p0: int, p1: int, p2: int) -> List[GateDef]:
    """Doubly-controlled Z on a path p0-p1-p2 with 8 nearest-neighbor CNOTs.

    The CNOT ladder walks the middle and right wires through all seven bit
    parities; T/Tdg deposits realize the CCZ phase polynomial exactly.
    """
    a, m, b = p0, p1, p2
    return [
        t(a), t(m), t(b),
        cnot(m, b), tdg(b),
        cnot(a, m), tdg(m),
        cnot(m, b), tdg(b),
        cnot(a, m),
        cnot(m, b), t(b),
        cnot(a, m),
        cnot(m, b),
        cnot(a, m),
    ]


def _ccz_9cnot(p0: int, p1: int, p2: int) -> List[GateDef]:
    """CCZ with 9 nearest-neighbor CNOTs; shortest odd-length parity walk."""
    a, m, b = p0, p1, p2
    return [
        t(a), t(m), t(b),
        cnot(a, m), tdg(m),
        cnot(m, a),
        cnot(a, m),
        cnot(b, m), tdg(m),
        cnot(m, a), t(a),
        cnot(a, m),
        cnot(b, m), tdg(m),
        cnot(m, a),
        cnot(b, m),
    ]


def _lnn(ccz, controls, target, coupling) -> Circuit:
    """H on the target around a CCZ core laid on the coupling path."""
    p0, p1, p2 = _path_order(controls, target, coupling)
    seq = [h(target)] + ccz(p0, p1, p2) + [h(target)]
    return Circuit(max(p0, p1, p2) + 1, tuple(seq))


_STRATEGY_BUILDERS = {
    DecompositionStrategy.FULL_6CNOT: _full_6cnot,
    DecompositionStrategy.LNN_8CNOT: lambda *roles: _lnn(_ccz_8cnot, *roles),
    # keeps its CNOTs: only the single-qubit gates are lowered
    DecompositionStrategy.LNN_9CNOT_RZSX:
        lambda *roles: _lower(_lnn(_ccz_9cnot, *roles), _RZ_SX_RULES),
    DecompositionStrategy.ECR_NATIVE: lambda *roles: to_native(_lnn(_ccz_8cnot, *roles)),
}


def decompose_toffoli(strategy: DecompositionStrategy, controls: Sequence[int],
                      target: int, coupling: Optional[CouplingGraph] = None) -> Circuit:
    """Build the requested Toffoli realization on the given control/target roles.

    Path-constrained strategies raise :class:`NonPathQubitsError` when the
    triple is not a line (consecutive indices, or a path of ``coupling``).
    """
    controls = tuple(controls)
    if len(set(controls) | {target}) != 3:
        raise ValueError("controls and target must be three distinct qubits")
    return _STRATEGY_BUILDERS[DecompositionStrategy(strategy)](controls, target, coupling)
