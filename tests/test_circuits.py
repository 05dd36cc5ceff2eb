import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccxlab.circuits import (
    Circuit,
    CouplingGraph,
    circuit_unitary,
    parse_circuit,
    path_graph,
    serialize_circuit,
    validate_connectivity,
)
from ccxlab.errors import ParseError, TooManyQubitsError
from ccxlab.gates import Gate, GateDef, cnot, ecr, h, rz, sx, t, x
from ccxlab.synthesis import DecompositionStrategy, decompose_toffoli


def test_equal_gates_and_circuits_built_separately_hash_and_compare_equal():
    toffoli = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
    copy = Circuit(3, tuple(GateDef(g.name, list(g.qubits), list(g.params))
                            for g in toffoli.gates))
    assert copy is not toffoli and copy.gates[0] is not toffoli.gates[0]
    assert hash(copy) == hash(toffoli) and copy == toffoli
    assert all(hash(a) == hash(b) and a == b for a, b in zip(copy.gates, toffoli.gates))
    assert {toffoli: 1}[copy] == 1 and {toffoli.gates[0]: 1}[copy.gates[0]] == 1
    gate = rz(0.25, 1)
    assert dataclasses.asdict(gate) == {"name": Gate.RZ, "qubits": (1,), "params": (0.25,)}
    moved = dataclasses.replace(gate, qubits=(2,))
    assert moved == rz(0.25, 2) and hash(moved) == hash(rz(0.25, 2)) and moved != gate


def test_empty_circuit_unitary_is_identity():
    assert np.array_equal(circuit_unitary(Circuit(2)), np.eye(4))


def test_cnot_application_little_endian():
    # CNOT(0->1) on |01> (qubit 0 = 1) gives |11>
    u = circuit_unitary(Circuit(2, (cnot(0, 1),)))
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1
    out = u @ psi
    assert abs(out[3]) == pytest.approx(1.0)


def test_unitary_is_homomorphic(rng):
    gates1 = (h(0), cnot(0, 1), rz(0.3, 2), ecr(1, 2))
    gates2 = (sx(2), cnot(2, 0), t(1))
    c1 = Circuit(3, gates1)
    c2 = Circuit(3, gates2)
    joined = Circuit(3, gates1 + gates2)
    # later gates multiply on the left
    assert np.max(np.abs(circuit_unitary(joined) -
                         circuit_unitary(c2) @ circuit_unitary(c1))) < 1e-10


def test_too_many_qubits():
    with pytest.raises(TooManyQubitsError):
        circuit_unitary(Circuit(7, (x(6),)))


def test_depth_and_counts():
    c = Circuit(3, (h(0), h(1), cnot(0, 1), cnot(1, 2)))
    assert c.depth() == 3
    assert c.two_qubit_count() == 2
    assert c.count(Gate.CNOT) == 2


# -- connectivity ---------------------------------------------------------------

def test_full_decomposition_violates_path():
    c = decompose_toffoli(DecompositionStrategy.FULL_6CNOT, (0, 1), 2)
    violations = validate_connectivity(c, path_graph(3))
    pairs = {tuple(sorted(g.qubits)) for _, g in violations}
    assert (0, 2) in pairs
    assert len(violations) >= 1


def test_linear_decomposition_clean_on_path():
    c = decompose_toffoli(DecompositionStrategy.LNN_8CNOT, (0, 1), 2)
    assert validate_connectivity(c, path_graph(3)) == []


def test_single_qubit_circuit_never_violates():
    c = Circuit(3, (h(0), x(2), rz(0.1, 1)))
    assert validate_connectivity(c, CouplingGraph(3, frozenset())) == []


def test_ccx_always_flagged():
    c = Circuit(3, (GateDef(Gate.CCX, (0, 1, 2)),))
    graph = CouplingGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert len(validate_connectivity(c, graph)) == 1


# -- serialization ----------------------------------------------------------------

def test_serialize_rz_format():
    text = serialize_circuit(Circuit(1, (rz(math.pi / 2, 0),)))
    assert "RZ(1.5707963267948966) q[0]" in text.splitlines()


def test_parse_rejects_bad_arity():
    with pytest.raises(ParseError) as exc:
        parse_circuit("qubits 2\nCNOT q[0]\n")
    assert exc.value.line_number == 2


def test_parse_rejects_unknown_gate():
    with pytest.raises(ParseError):
        parse_circuit("qubits 1\nFOO q[0]\n")


@pytest.mark.parametrize("angle", ["nan", "inf", "-Infinity"])
def test_parse_rejects_non_finite_parameters(angle):
    with pytest.raises(ParseError, match="non-finite parameter") as exc:
        parse_circuit(f"qubits 1\nSX q[0]\nRZ({angle}) q[0]\n")
    assert exc.value.line_number == 3


def test_parse_requires_header():
    with pytest.raises(ParseError):
        parse_circuit("X q[0]\n")


def test_parse_comments_and_blanks():
    c = parse_circuit("# a comment\nqubits 2\n\nX q[0]  # trailing\nECR q[0],q[1]\n")
    assert c.num_qubits == 2
    assert [g.name for g in c.gates] == [Gate.X, Gate.ECR]


def test_round_trip_of_ecr_native_toffoli():
    c = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
    assert parse_circuit(serialize_circuit(c)) == c


_gate_strategies = st.one_of(
    st.builds(x, st.integers(0, 3)),
    st.builds(sx, st.integers(0, 3)),
    st.builds(h, st.integers(0, 3)),
    st.builds(rz, st.floats(-50, 50, allow_nan=False), st.integers(0, 3)),
    st.builds(lambda a, b: cnot(a, b if b != a else (a + 1) % 4),
              st.integers(0, 3), st.integers(0, 3)),
    st.builds(lambda a, b: ecr(a, b if b != a else (a + 1) % 4),
              st.integers(0, 3), st.integers(0, 3)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_gate_strategies, max_size=30))
def test_serialization_round_trip_property(gates):
    c = Circuit(4, tuple(gates))
    assert parse_circuit(serialize_circuit(c)) == c
