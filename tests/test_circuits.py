import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccxlab import cli
from ccxlab.circuits import (
    Circuit,
    circuit_unitary,
    parse_circuit,
    serialize_circuit,
    validate_connectivity,
)
from ccxlab.errors import ParseError, UsageError
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
    with pytest.raises(UsageError, match="^dense unitary limited to 6 qubits$"):
        circuit_unitary(Circuit(7, (x(6),)))


def test_depth_and_counts():
    c = Circuit(3, (h(0), h(1), cnot(0, 1), cnot(1, 2)))
    assert c.depth() == 3
    assert c.two_qubit_count() == 2
    assert c.count(Gate.CNOT) == 2


# -- connectivity ---------------------------------------------------------------

def test_full_decomposition_violates_path():
    c = decompose_toffoli(DecompositionStrategy.FULL_6CNOT, (0, 1), 2)
    violations = validate_connectivity(c)
    pairs = {tuple(sorted(g.qubits)) for _, g in violations}
    assert (0, 2) in pairs
    assert len(violations) >= 1


def test_linear_decomposition_clean_on_path():
    c = decompose_toffoli(DecompositionStrategy.LNN_8CNOT, (0, 1), 2)
    assert validate_connectivity(c) == []


def test_single_qubit_circuit_never_violates():
    c = Circuit(3, (h(0), x(2), rz(0.1, 1)))
    assert validate_connectivity(c) == []


def test_ccx_always_flagged():
    c = Circuit(3, (GateDef(Gate.CCX, (0, 1, 2)),))
    assert len(validate_connectivity(c)) == 1


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Circuit(0), "a circuit needs at least one qubit", id="no-qubits")])
def test_a_register_or_edge_out_of_range_is_a_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


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


#: per parse error, a circuit text, the line it names and the reason it gives
_PARSE_ERRORS = [
    pytest.param("qubits 2\nECR q[0],q[2]\n", 2, "gate ECR on (0, 2) exceeds 2-qubit register",
                 id="gate-past-the-register"),
    pytest.param("qubits 2\nX q[1]\nECR q[0],q[2]\nX q[5]\n", 3,
                 "gate ECR on (0, 2) exceeds 2-qubit register", id="first-gate-past-the-register"),
    pytest.param("qubits 0\nX q[0]\n", 1, "a circuit needs at least one qubit", id="no-qubits"),
    pytest.param("qubits x\n", 1, "malformed header 'qubits x'", id="malformed-header"),
    pytest.param("qubits 1\nX q0\n", 2, "unrecognized gate line 'X q0'", id="unrecognized-line"),
    pytest.param("qubits 1\nRZ(a) q[0]\n", 2, "bad parameter list 'a'", id="bad-parameters"),
    pytest.param("qubits 1\nSX(0.5) q[0]\n", 2, "SX takes 0 parameter(s), got (0.5,)",
                 id="parameter-count"),
    pytest.param("qubits 2\nECR q[0],q[0]\n", 2, "ECR qubit indices must be distinct: (0, 0)",
                 id="repeated-qubit"),
    pytest.param("qubits 2\nECR q[0]\n", 2, "ECR takes 2 qubit(s), got (0,)", id="arity"),
    pytest.param("qubits 1\nqubits 2\n", 2, "duplicate qubits header", id="duplicate-header"),
    pytest.param("# only a comment\n", 0, "missing 'qubits N' header", id="missing-header"),
]


@pytest.mark.parametrize("text, line, reason", _PARSE_ERRORS)
def test_a_parse_error_names_its_line_and_reason(text, line, reason, tmp_path, capsys):
    with pytest.raises(ParseError) as exc:
        parse_circuit(text)
    assert (exc.value.line_number, exc.value.reason) == (line, reason)
    assert (exc.value.category, exc.value.exit_code) == ("schema", 3)
    path = tmp_path / "circuit.txt"
    path.write_text(text)
    assert cli.main(["simulate", str(path)]) == 3
    assert capsys.readouterr().err == f"error[schema]: line {line}: {reason}\n"


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
