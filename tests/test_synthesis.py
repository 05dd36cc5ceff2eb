import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccxlab.circuits import Circuit, CouplingGraph, circuit_unitary, path_graph, validate_connectivity
from ccxlab.errors import DimensionMismatchError, NonPathQubitsError
from ccxlab.gates import NATIVE_GATES, Gate, GateDef, cnot, gate_matrix, rz, sx
from ccxlab.synthesis import (
    DecompositionStrategy,
    _ccz_8cnot,
    _ccz_9cnot,
    certify_toffoli,
    cnot_to_ecr,
    decompose_toffoli,
    equivalent_up_to_global_phase,
    native_h,
    native_u3,
    peephole_merge,
    to_native,
    toffoli_unitary,
)

from conftest import random_unitary

ALL_ROLES = [((a, b), t) for a, b, t in itertools.permutations(range(3))]


def test_toffoli_unitary_truth_table():
    u = toffoli_unitary((0, 1), 2)
    for i in range(8):
        j = i ^ 4 if (i & 3) == 3 else i
        assert u[j, i] == 1.0


def test_toffoli_matches_gate_matrix():
    assert np.array_equal(toffoli_unitary((1, 2), 0), gate_matrix(GateDef(Gate.CCX, (1, 2, 0))))


@pytest.mark.parametrize("strategy", list(DecompositionStrategy))
@pytest.mark.parametrize("controls,target", ALL_ROLES)
def test_all_strategies_all_roles(strategy, controls, target):
    c = decompose_toffoli(strategy, controls, target)
    report = certify_toffoli(c, controls, target, tol=1e-10)
    assert report.equivalent, f"{strategy} {controls}->{target}: err {report.max_abs_error}"
    assert abs(abs(report.phase) - 1.0) < 1e-12


@pytest.mark.parametrize("strategy,budget", [
    (DecompositionStrategy.FULL_6CNOT, 6),
    (DecompositionStrategy.LNN_8CNOT, 8),
    (DecompositionStrategy.LNN_9CNOT_RZSX, 9),
])
def test_cnot_budgets_exact(strategy, budget):
    for controls, target in ALL_ROLES:
        c = decompose_toffoli(strategy, controls, target)
        assert c.count(Gate.CNOT) == budget


def test_ecr_native_count_stable():
    first = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
    second = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
    assert first == second
    assert first.count(Gate.ECR) == 8
    assert first.count(Gate.CNOT) == 0


#: the four directed nearest-neighbour CNOTs on the line 0-1-2, as (control, target)
LINE_CNOTS = ((0, 1), (1, 0), (1, 2), (2, 1))


def _parity_walks(max_len):
    """Every CNOT word over ``LINE_CNOTS`` of at most ``max_len`` CNOTs, by length, that
    restores the wires and puts each of the 7 nonzero parities of three bits on some wire.

    Wire q starts with the parity mask 1 << q; CNOT(c, t) XORs the control's mask into
    the target's.
    """
    walks = defaultdict(list)

    def extend(wires, seen, word):
        if word and wires == (1, 2, 4) and len(seen) == 7:
            walks[len(word)].append(word)
        if len(word) < max_len:
            for c, t in LINE_CNOTS:
                after = list(wires)
                after[t] ^= wires[c]
                extend(tuple(after), seen | {after[t]}, word + ((c, t),))

    extend((1, 2, 4), frozenset((1, 2, 4)), ())
    return walks


def test_nine_cnots_is_the_shortest_odd_parity_walk():
    walks = _parity_walks(9)
    assert {length: len(words) for length, words in walks.items()} == {8: 4, 9: 84}

    def word(gates):
        return tuple(g.qubits for g in gates if g.name is Gate.CNOT)

    assert word(_ccz_8cnot(0, 1, 2)) in walks[8]
    assert word(_ccz_9cnot(0, 1, 2)) in walks[9]


def test_full_6cnot_single_qubit_gate_set():
    c = decompose_toffoli(DecompositionStrategy.FULL_6CNOT, (0, 1), 2)
    singles = {g.name for g in c.gates if len(g.qubits) == 1}
    assert singles <= {Gate.H, Gate.T, Gate.TDG, Gate.S}


def test_lnn9_single_qubit_gate_set():
    c = decompose_toffoli(DecompositionStrategy.LNN_9CNOT_RZSX, (0, 1), 2)
    singles = {g.name for g in c.gates if len(g.qubits) == 1}
    assert singles <= {Gate.RZ, Gate.SX}


def test_ecr_native_gate_set():
    c = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
    assert {g.name for g in c.gates} <= {Gate.ECR, Gate.RZ, Gate.SX, Gate.X, Gate.ID}


@pytest.mark.parametrize("strategy", [DecompositionStrategy.LNN_8CNOT,
                                      DecompositionStrategy.LNN_9CNOT_RZSX,
                                      DecompositionStrategy.ECR_NATIVE])
def test_path_strategies_respect_connectivity(strategy):
    for controls, target in ALL_ROLES:
        c = decompose_toffoli(strategy, controls, target)
        assert validate_connectivity(c, path_graph(3)) == []


def test_self_inverse_up_to_phase():
    for strategy in DecompositionStrategy:
        c = decompose_toffoli(strategy, (0, 1), 2)
        doubled = Circuit(3, c.gates + c.gates)
        rep = equivalent_up_to_global_phase(circuit_unitary(doubled), np.eye(8), tol=1e-9)
        assert rep.equivalent


def test_non_path_triple_rejected():
    with pytest.raises(NonPathQubitsError):
        decompose_toffoli(DecompositionStrategy.LNN_8CNOT, (0, 1), 3)
    # full connectivity strategy does not care
    decompose_toffoli(DecompositionStrategy.FULL_6CNOT, (0, 1), 3)


def test_coupling_graph_path_detection():
    # star graph: 1 is adjacent to both 0 and 3
    graph = CouplingGraph(4, frozenset({(0, 1), (1, 3), (1, 2)}))
    c = decompose_toffoli(DecompositionStrategy.LNN_8CNOT, (0, 3), 1, coupling=graph)
    rep = certify_toffoli(c, (0, 3), 1)
    assert rep.equivalent
    assert validate_connectivity(c, graph) == []
    no_path = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(NonPathQubitsError):
        decompose_toffoli(DecompositionStrategy.LNN_8CNOT, (0, 1), 3, coupling=no_path)


# -- equivalence reporting ---------------------------------------------------------

def test_equivalence_identity_case(rng):
    u = random_unitary(8, rng)
    rep = equivalent_up_to_global_phase(u, u, tol=1e-10)
    assert rep.equivalent
    assert rep.phase == pytest.approx(1.0)


def test_equivalence_pure_phase(rng):
    u = random_unitary(4, rng)
    rep = equivalent_up_to_global_phase(u, np.exp(1j * math.pi / 7) * u, tol=1e-10)
    assert rep.equivalent
    assert rep.phase == pytest.approx(np.exp(-1j * math.pi / 7))


def test_equivalence_distinct_operators():
    toffoli = toffoli_unitary((0, 1), 2)
    cx_on_low = circuit_unitary(Circuit(3, (cnot(0, 1),)))
    rep = equivalent_up_to_global_phase(toffoli, cx_on_low, tol=1e-10)
    assert not rep.equivalent


def test_equivalence_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        equivalent_up_to_global_phase(np.eye(4), np.eye(8))


# -- CNOT -> ECR -------------------------------------------------------------------

@pytest.mark.parametrize("control,target", [(0, 1), (1, 0), (1, 2), (2, 1)])
def test_cnot_to_ecr_exact(control, target):
    circ = cnot_to_ecr(control, target)
    n = circ.num_qubits
    ref = circuit_unitary(Circuit(n, (cnot(control, target),)))
    rep = equivalent_up_to_global_phase(circuit_unitary(circ), ref, tol=1e-10)
    assert rep.equivalent
    assert circ.count(Gate.ECR) == 1


def test_cnot_to_ecr_action():
    circ = cnot_to_ecr(0, 1)
    u = circuit_unitary(circ)
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0  # control qubit set
    out = u @ psi
    assert abs(out[3]) == pytest.approx(1.0, abs=1e-10)


# -- native singles and peephole ----------------------------------------------------

def test_native_h_matches_hadamard():
    u = circuit_unitary(Circuit(1, tuple(native_h(0))))
    hmat = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert equivalent_up_to_global_phase(u, hmat, tol=1e-12).equivalent


def test_native_u3_matches_rotation(rng):
    for _ in range(25):
        theta, phi, lam = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        u = circuit_unitary(Circuit(1, tuple(native_u3(theta, phi, lam, 0))))
        ref = np.array([
            [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
            [np.exp(1j * phi) * math.sin(theta / 2),
             np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
        ])
        assert equivalent_up_to_global_phase(u, ref, tol=1e-9).equivalent


def test_peephole_merges_rz_and_preserves_unitary():
    c = Circuit(2, (rz(0.3, 0), rz(0.4, 0), sx(1), rz(-0.7, 0), rz(0.2, 1), rz(-0.2, 1)))
    merged = peephole_merge(c)
    assert np.max(np.abs(circuit_unitary(merged) - circuit_unitary(c))) < 1e-12
    rz_on_0 = [g for g in merged.gates if g.name is Gate.RZ and g.qubits == (0,)]
    assert len(rz_on_0) == 0  # 0.3 + 0.4 - 0.7 = 0 drops out entirely


def test_peephole_keeps_two_pi_rotation():
    c = Circuit(1, (rz(2 * math.pi, 0),))
    merged = peephole_merge(c)
    assert len(merged.gates) == 1  # RZ(2*pi) = -I is not the identity


def test_peephole_does_not_merge_across_blockers():
    c = Circuit(1, (rz(0.3, 0), sx(0), rz(0.4, 0)))
    merged = peephole_merge(c)
    assert [g.name for g in merged.gates] == [Gate.RZ, Gate.SX, Gate.RZ]


# -- the lowering pass ---------------------------------------------------------------

_QUBIT = st.integers(0, 2)
_LOGICAL_GATES = st.one_of(
    st.builds(lambda name, q: GateDef(name, (q,)),
              st.sampled_from([Gate.H, Gate.T, Gate.TDG, Gate.S, Gate.SDG, Gate.X, Gate.SX]),
              _QUBIT),
    st.builds(rz, st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False), _QUBIT),
    st.permutations(range(3)).map(lambda wires: cnot(wires[0], wires[1])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LOGICAL_GATES, max_size=30))
def test_to_native_keeps_the_unitary_on_the_native_gate_set(gates):
    circuit = Circuit(3, tuple(gates))
    out = to_native(circuit)
    assert {g.name for g in out.gates} <= NATIVE_GATES
    report = equivalent_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit), 1e-10)
    assert report.equivalent, report.max_abs_error


@pytest.mark.parametrize("controls,target", ALL_ROLES)
def test_ecr_native_is_the_lowered_8cnot_form(controls, target):
    lnn = decompose_toffoli(DecompositionStrategy.LNN_8CNOT, controls, target)
    assert decompose_toffoli(DecompositionStrategy.ECR_NATIVE, controls, target) == to_native(lnn)
