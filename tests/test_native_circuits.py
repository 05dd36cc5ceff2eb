"""Pins every native circuit and gate matrix the package builds, byte for byte.

The digest covers the serialized state preparations (GHZ, W, UNIFORM, the
eight basis states, every 1- and 3-qubit probe), the four Toffoli strategies
on four control/target role assignments, the measurement rotation of every
setting for k = 1..3, and the gate matrix of every gate on every wire order.
Seeded outputs are bit-identical only while all of these are, so a refactor
of the lowering pass must leave the digest where it is. It moves only on
purpose: when a change alters a circuit (for example, routing the
full-connectivity strategy onto the line), record the new digest here and
say why in CHANGES.md.
"""

import hashlib
import itertools
import math

from ccxlab.circuits import serialize_circuit
from ccxlab.gates import Gate, GateDef, gate_matrix
from ccxlab.states import PROBE_LABELS, StateKind, prepare_state, probe_circuit
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli
from ccxlab.tomography import measurement_rotation, qst_settings

from conftest import basis_circuit

NATIVE_CIRCUITS_SHA256 = "f5eb1ea8b84b8bb77dde65872d6c3619511e7b3f93e5712049f9e3a728b10ed1"

ROLES = (((0, 1), 2), ((1, 0), 2), ((1, 2), 0), ((0, 2), 1))
RZ_ANGLES = (0.0, 0.3, math.pi / 2, -math.pi / 4, 2 * math.pi)


def _gates_on_every_wire_order():
    for name in Gate:
        if name is Gate.RZ:
            yield from (GateDef(name, (0,), (theta,)) for theta in RZ_ANGLES)
        elif name in (Gate.CNOT, Gate.ECR, Gate.CCX):
            arity = 3 if name is Gate.CCX else 2
            yield from (GateDef(name, wires) for wires in itertools.permutations(range(arity)))
        else:
            yield GateDef(name, (0,))


def native_circuits_digest() -> str:
    digest = hashlib.sha256()

    def add(label, payload):
        digest.update(label.encode() + b"\0" + payload + b"\0")

    for kind in (StateKind.GHZ, StateKind.W, StateKind.UNIFORM):
        add(kind.value, serialize_circuit(prepare_state(kind)).encode())
    for index in range(8):
        add(f"BASIS {index}", serialize_circuit(basis_circuit(index)).encode())
    for k in (1, 3):
        for probe in itertools.product(PROBE_LABELS, repeat=k):
            add(f"PROBE {probe}", serialize_circuit(probe_circuit(probe)).encode())
    for strategy in DecompositionStrategy:
        for controls, target in ROLES:
            circuit = decompose_toffoli(strategy, controls, target)
            add(f"{strategy.value} {controls} {target}", serialize_circuit(circuit).encode())
    for k in (1, 2, 3):
        for setting in qst_settings(k):
            add(f"rotation {setting}", serialize_circuit(measurement_rotation(setting)).encode())
    for g in _gates_on_every_wire_order():
        m = gate_matrix(g)
        add(f"matrix {g!r} {m.dtype.str} {m.shape}", m.tobytes())
    return digest.hexdigest()


def test_native_circuits_are_unchanged():
    assert native_circuits_digest() == NATIVE_CIRCUITS_SHA256
