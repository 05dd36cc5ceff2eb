"""Circuit IR, coupling graphs, dense evaluation, and the text format.

A :class:`Circuit` is an ordered tuple of :class:`~ccxlab.gates.GateDef`
applications on ``num_qubits`` wires. Basis ordering is little-endian
everywhere: qubit 0 is the least-significant bit of a basis index.

Text format (UTF-8, one gate per line)::

    # optional comments
    qubits 3
    RZ(1.5707963267948966) q[0]
    ECR q[0],q[1]

Angles render with 17 significant digits so parsing is bit-exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

import numpy as np

from .errors import ParseError, TooManyQubitsError
from .gates import GATE_ARITY, GATE_PARAM_COUNT, Gate, GateDef, gate_matrix, hash_once

MAX_QUBITS = 6


@hash_once
@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: Tuple[GateDef, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g.name.value} on {g.qubits} exceeds "
                                 f"{self.num_qubits}-qubit register")

    def concat(self, other: "Circuit") -> "Circuit":
        n = max(self.num_qubits, other.num_qubits)
        return Circuit(n, self.gates + other.gates)

    def count(self, name: Gate) -> int:
        return sum(1 for g in self.gates if g.name is name)

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if GATE_ARITY[g.name] >= 2)

    def depth(self) -> int:
        """Greedy layering depth (each gate starts after its wires are free)."""
        frontier = [0] * self.num_qubits
        for g in self.gates:
            layer = 1 + max(frontier[q] for q in g.qubits)
            for q in g.qubits:
                frontier[q] = layer
        return max(frontier, default=0)


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected adjacency of qubit pairs on which 2-qubit gates are legal."""

    num_qubits: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        norm = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        for a, b in norm:
            if a == b:
                raise ValueError(f"self-loop edge ({a},{b})")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a},{b}) outside {self.num_qubits}-qubit graph")

    def has_edge(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in self.edges


def path_graph(num_qubits: int) -> CouplingGraph:
    return CouplingGraph(num_qubits, frozenset((i, i + 1) for i in range(num_qubits - 1)))


def validate_connectivity(c: Circuit, g: CouplingGraph) -> List[Tuple[int, GateDef]]:
    """Every multi-qubit gate on a non-edge, as (gate index, gate) pairs.

    CCX is never executable directly and is always flagged.
    """
    if c.num_qubits > g.num_qubits:
        raise ValueError(f"circuit uses {c.num_qubits} qubits, graph has {g.num_qubits}")
    violations = []
    for i, gate in enumerate(c.gates):
        if gate.name is Gate.CCX:
            violations.append((i, gate))
        elif GATE_ARITY[gate.name] == 2 and not g.has_edge(*gate.qubits):
            violations.append((i, gate))
    return violations


# -- dense evaluation ---------------------------------------------------------

def _apply_local(tensor: np.ndarray, local: np.ndarray, wires, n: int) -> np.ndarray:
    """Contract ``local`` (on sorted wires, little-endian) into a state tensor.

    ``tensor`` has one axis per qubit (axis a = qubit n-1-a) plus optional
    trailing batch axes.
    """
    k = len(wires)
    g = local.reshape([2] * (2 * k))
    taxes = [n - 1 - q for q in reversed(wires)]
    out = np.tensordot(g, tensor, axes=(list(range(k, 2 * k)), taxes))
    return np.moveaxis(out, range(k), taxes)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (product in application order)."""
    if c.num_qubits > MAX_QUBITS:
        raise TooManyQubitsError(f"dense unitary limited to {MAX_QUBITS} qubits")
    dim = 2 ** c.num_qubits
    u = np.eye(dim, dtype=complex).reshape([2] * c.num_qubits + [dim])
    for g in c.gates:
        u = _apply_local(u, gate_matrix(g), sorted(g.qubits), c.num_qubits)
    return u.reshape(dim, dim)


# -- text serialization -------------------------------------------------------

_GATE_LINE = re.compile(
    r"^(?P<name>[A-Z]+)"
    r"(?:\((?P<params>[^()]*)\))?"
    r"\s+(?P<qubits>q\[\d+\](?:\s*,\s*q\[\d+\])*)$"
)


def serialize_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.num_qubits}"]
    for g in c.gates:
        name = g.name.value
        if g.params:
            name += "(" + ",".join(format(p, ".17g") for p in g.params) + ")"
        wires = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{name} {wires}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    num_qubits = None
    gates: List[GateDef] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("qubits"):
            if num_qubits is not None:
                raise ParseError(lineno, "duplicate qubits header")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(lineno, f"malformed header {line!r}")
            num_qubits = int(parts[1])
            continue
        if num_qubits is None:
            raise ParseError(lineno, "gate line before 'qubits N' header")
        m = _GATE_LINE.match(line)
        if not m:
            raise ParseError(lineno, f"unrecognized gate line {line!r}")
        name = m.group("name")
        try:
            gate_name = Gate(name)
        except ValueError:
            raise ParseError(lineno, f"unknown gate {name!r}") from None
        params: Tuple[float, ...] = ()
        if m.group("params") is not None:
            try:
                params = tuple(float(p) for p in m.group("params").split(",") if p.strip())
            except ValueError:
                raise ParseError(lineno, f"bad parameter list {m.group('params')!r}") from None
            if not all(math.isfinite(p) for p in params):
                raise ParseError(lineno, f"non-finite parameter in {m.group('params')!r}")
        qubits = tuple(int(q) for q in re.findall(r"q\[(\d+)\]", m.group("qubits")))
        if len(qubits) != GATE_ARITY[gate_name]:
            raise ParseError(lineno, f"{name} takes {GATE_ARITY[gate_name]} qubit(s), got {len(qubits)}")
        if len(params) != GATE_PARAM_COUNT[gate_name]:
            raise ParseError(lineno, f"{name} takes {GATE_PARAM_COUNT[gate_name]} parameter(s), got {len(params)}")
        try:
            gates.append(GateDef(gate_name, qubits, params))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if num_qubits is None:
        raise ParseError(0, "missing 'qubits N' header")
    try:
        return Circuit(num_qubits, tuple(gates))
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None
