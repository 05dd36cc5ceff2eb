"""Circuit IR, connectivity on the line, dense evaluation, and the text format.

A :class:`Circuit` is an ordered tuple of :class:`~ccxlab.gates.GateDef`
applications on ``num_qubits`` wires. Basis ordering is little-endian
everywhere: qubit 0 is the least-significant bit of a basis index.

The register is a line 0-1-...-(n-1), the one layout modelled: a two-qubit
gate runs only on neighbouring wires (``validate_connectivity``). A three-qubit
path on any device is this line once its qubits are relabelled.

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
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .errors import ParseError, UsageError
from .gates import GATE_ARITY, Gate, GateDef, gate_matrix

MAX_QUBITS = 6


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: Tuple[GateDef, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise UsageError("a circuit needs at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise UsageError(f"gate {g.name.value} on {g.qubits} exceeds "
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


def validate_connectivity(c: Circuit) -> List[Tuple[int, GateDef]]:
    """Every gate that the line 0-1-...-(n-1) of ``c``'s register cannot run, as (gate index,
    gate) pairs: each CCX, and each two-qubit gate whose wires are not neighbours."""
    return [(i, g) for i, g in enumerate(c.gates)
            if g.name is Gate.CCX or max(g.qubits) - min(g.qubits) > 1]


# -- dense evaluation ---------------------------------------------------------

@lru_cache(maxsize=None)
def _bit_index(bits: Tuple[int, ...], width: int) -> np.ndarray:
    """The (2^k, 2^(width-k)) positions, in a flat array of 2^width entries, that an operator
    on the k ``bits`` touches: row l holds the positions whose ``bits`` spell l, bit j of l on
    ``bits[j]``, one column per setting of the other bits. Cached per (bits, width): callers
    pass wire subsets of at most ``MAX_QUBITS`` qubits, or their vec(rho) layout."""
    index = np.arange(2 ** width)
    rest = [b for b in range(width) if b not in bits]

    def spell(on):
        return sum(((index >> b) & 1) << j for j, b in enumerate(on))

    at = np.empty((2 ** len(bits), 2 ** len(rest)), dtype=np.intp)
    at[spell(bits), spell(rest)] = index
    at.setflags(write=False)
    return at


def _apply_local(flat: np.ndarray, local: np.ndarray, bits, width: int) -> np.ndarray:
    """``local`` applied on ``bits`` (little-endian) of a flat array of 2^width entries.

    One gather of the entries it touches, one matrix product and one scatter;
    trailing axes of ``flat`` are a batch.
    """
    at = _bit_index(tuple(bits), width)
    out = np.empty_like(flat, dtype=np.result_type(flat, local))
    out[at] = (local @ flat[at].reshape(len(at), -1)).reshape(at.shape + flat.shape[1:])
    return out


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (product in application order)."""
    if c.num_qubits > MAX_QUBITS:
        raise UsageError(f"dense unitary limited to {MAX_QUBITS} qubits")
    u = np.eye(2 ** c.num_qubits, dtype=complex)
    for g in c.gates:
        u = _apply_local(u, gate_matrix(g), sorted(g.qubits), c.num_qubits)
    return u


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
            if num_qubits < 1:
                raise ParseError(lineno, "a circuit needs at least one qubit")
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
        try:
            gates.append(GateDef(gate_name, qubits, params))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if max(qubits) >= num_qubits:
            raise ParseError(lineno, f"gate {name} on {qubits} exceeds {num_qubits}-qubit register")
    if num_qubits is None:
        raise ParseError(0, "missing 'qubits N' header")
    return Circuit(num_qubits, tuple(gates))
