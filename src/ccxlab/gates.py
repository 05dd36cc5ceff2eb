"""Gate catalog: names, arities, and unitary matrices.

Multi-qubit gate matrices are expressed on the gate's own wires *sorted
ascending*, little-endian (the smallest wire index is the least-significant
bit). The role of each wire (control/target) comes from the order of the
``GateDef.qubits`` tuple, so ``cnot(0, 1)`` and ``cnot(1, 0)`` produce
different 4x4 matrices on the same wire pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import UnknownGateError
from .qmath import I2, X as _X

_SQ2 = 1 / math.sqrt(2)

MAT_X = _X
MAT_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
MAT_H = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
MAT_T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
MAT_TDG = MAT_T.conj().T
MAT_S = np.diag([1, 1j]).astype(complex)
MAT_SDG = MAT_S.conj().T

# echoed cross-resonance, control on the lower wire index
MAT_ECR_ASC = np.array([
    [0, _SQ2, 0, 1j * _SQ2],
    [_SQ2, 0, -1j * _SQ2, 0],
    [0, 1j * _SQ2, 0, _SQ2],
    [-1j * _SQ2, 0, _SQ2, 0],
], dtype=complex)
# control on the higher wire index: SWAP . ECR_ASC . SWAP, an exact reindexing
_SWAP_ORDER = [0, 2, 1, 3]
MAT_ECR_DESC = MAT_ECR_ASC[np.ix_(_SWAP_ORDER, _SWAP_ORDER)]


class Gate(str, Enum):
    X = "X"
    SX = "SX"
    RZ = "RZ"
    H = "H"
    T = "T"
    TDG = "TDG"
    S = "S"
    SDG = "SDG"
    ID = "ID"
    CNOT = "CNOT"
    ECR = "ECR"
    CCX = "CCX"


GATE_ARITY = {
    Gate.X: 1, Gate.SX: 1, Gate.RZ: 1, Gate.H: 1, Gate.T: 1, Gate.TDG: 1,
    Gate.S: 1, Gate.SDG: 1, Gate.ID: 1, Gate.CNOT: 2, Gate.ECR: 2, Gate.CCX: 3,
}
GATE_PARAM_COUNT = {name: (1 if name is Gate.RZ else 0) for name in Gate}

#: the gate set executable on the target devices
NATIVE_GATES = frozenset({Gate.ECR, Gate.ID, Gate.RZ, Gate.SX, Gate.X})


@dataclass(frozen=True)
class GateDef:
    """One gate application: name, wires (role order), and real parameters."""

    name: Gate
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not isinstance(self.name, Gate):
            raise UnknownGateError(f"unknown gate {self.name!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        arity = GATE_ARITY[self.name]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.name.value} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name.value} qubit indices must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        nparams = GATE_PARAM_COUNT[self.name]
        if len(self.params) != nparams:
            raise ValueError(f"{self.name.value} takes {nparams} parameter(s), got {self.params}")


# readable constructors -------------------------------------------------------

def x(q: int) -> GateDef:
    return GateDef(Gate.X, (q,))


def sx(q: int) -> GateDef:
    return GateDef(Gate.SX, (q,))


def rz(theta: float, q: int) -> GateDef:
    return GateDef(Gate.RZ, (q,), (theta,))


def h(q: int) -> GateDef:
    return GateDef(Gate.H, (q,))


def t(q: int) -> GateDef:
    return GateDef(Gate.T, (q,))


def tdg(q: int) -> GateDef:
    return GateDef(Gate.TDG, (q,))


def s(q: int) -> GateDef:
    return GateDef(Gate.S, (q,))


def sdg(q: int) -> GateDef:
    return GateDef(Gate.SDG, (q,))


def cnot(control: int, target: int) -> GateDef:
    return GateDef(Gate.CNOT, (control, target))


def ecr(control: int, target: int) -> GateDef:
    return GateDef(Gate.ECR, (control, target))


def _controlled_x(g: GateDef) -> np.ndarray:
    """Classical controlled-X permutation; the last wire of ``g`` is the target."""
    order = sorted(g.qubits)
    *controls, target = (order.index(q) for q in g.qubits)
    dim = 2 ** len(order)
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if all((i >> p) & 1 for p in controls) else i
        m[j, i] = 1.0
    return m


def _rz(g: GateDef) -> np.ndarray:
    return np.diag([np.exp(-1j * g.params[0] / 2), np.exp(1j * g.params[0] / 2)]).astype(complex)


_FIXED_MATRICES = {Gate.X: MAT_X, Gate.SX: MAT_SX, Gate.H: MAT_H, Gate.T: MAT_T,
                   Gate.TDG: MAT_TDG, Gate.S: MAT_S, Gate.SDG: MAT_SDG, Gate.ID: I2}
_MATRIX_BUILDERS = {
    Gate.RZ: _rz,
    Gate.ECR: lambda g: (MAT_ECR_ASC if g.qubits[0] < g.qubits[1] else MAT_ECR_DESC).copy(),
    Gate.CNOT: _controlled_x,
    Gate.CCX: _controlled_x,
}


def gate_matrix(g: GateDef) -> np.ndarray:
    """Unitary of ``g`` on its own wires, sorted ascending, little-endian."""
    fixed = _FIXED_MATRICES.get(g.name)
    return fixed.copy() if fixed is not None else _MATRIX_BUILDERS[g.name](g)
