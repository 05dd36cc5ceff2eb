import math

import numpy as np
import pytest

from ccxlab.errors import UnknownGateError
from ccxlab.gates import (
    Gate,
    GateDef,
    cnot,
    ecr,
    gate_matrix,
    h,
    rz,
    s,
    sdg,
    sx,
    t,
    tdg,
    x,
)
from ccxlab.qmath import check_unitary

SQ2 = 1 / math.sqrt(2)

# published entry values for the echoed cross-resonance orientations
ECR_CONTROL_LOW = SQ2 * np.array([
    [0, 1, 0, 1j],
    [1, 0, -1j, 0],
    [0, 1j, 0, 1],
    [-1j, 0, 1, 0],
])
ECR_CONTROL_HIGH = SQ2 * np.array([
    [0, 0, 1, 1j],
    [0, 0, 1j, 1],
    [1, -1j, 0, 0],
    [-1j, 1, 0, 0],
])


def test_x_matrix():
    assert np.array_equal(gate_matrix(x(0)), [[0, 1], [1, 0]])


def test_sx_squares_to_x():
    m = gate_matrix(sx(0))
    assert np.max(np.abs(m @ m - gate_matrix(x(0)))) < 1e-12


def test_rz_zero_is_identity_up_to_phase():
    m = gate_matrix(rz(0.0, 0))
    assert np.max(np.abs(m - np.eye(2))) < 1e-12


def test_ecr_ascending_entries():
    assert np.max(np.abs(gate_matrix(ecr(0, 1)) - ECR_CONTROL_LOW)) < 1e-15


def test_ecr_descending_entries():
    assert np.max(np.abs(gate_matrix(ecr(1, 0)) - ECR_CONTROL_HIGH)) < 1e-15


def test_ecr_orientations_swap_conjugate():
    swap = np.eye(4)[[0, 2, 1, 3]]
    conj = swap @ gate_matrix(ecr(0, 1)) @ swap
    assert np.max(np.abs(conj - gate_matrix(ecr(1, 0)))) < 1e-12


def test_cnot_role_orientation():
    # control on the low wire: |01> (qubit 0 set) -> |11>
    low = gate_matrix(cnot(0, 1))
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1
    out = low @ psi
    assert abs(out[3]) == pytest.approx(1.0)
    # control on the high wire: |10> (qubit 1 set) -> |11>
    high = gate_matrix(cnot(1, 0))
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1
    assert abs((high @ psi)[3]) == pytest.approx(1.0)


def test_ccx_matches_block_permutation():
    # controls on wires 1 and 2, target wire 0: permutation swapping |110>,|111>
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(gate_matrix(GateDef(Gate.CCX, (1, 2, 0))), expected)


def test_ccx_other_roles():
    m = gate_matrix(GateDef(Gate.CCX, (0, 1, 2)))
    psi = np.zeros(8, dtype=complex)
    psi[3] = 1  # qubits 0,1 set
    assert abs((m @ psi)[7]) == pytest.approx(1.0)
    psi = np.zeros(8, dtype=complex)
    psi[2] = 1  # only qubit 1 set
    assert abs((m @ psi)[2]) == pytest.approx(1.0)


def test_catalog_unitarity(rng):
    catalog = [x(0), sx(0), h(0), t(0), tdg(0), s(0), sdg(0), GateDef(Gate.ID, (0,)),
               cnot(0, 1), cnot(1, 0), ecr(0, 1), ecr(1, 0),
               GateDef(Gate.CCX, (0, 1, 2)), GateDef(Gate.CCX, (2, 0, 1))]
    for g in catalog:
        check_unitary(gate_matrix(g), tol=1e-10)
    for _ in range(100):
        check_unitary(gate_matrix(rz(rng.uniform(-20, 20), 0)), tol=1e-10)


def test_gatedef_validation():
    with pytest.raises(ValueError):
        GateDef(Gate.CNOT, (0,))
    with pytest.raises(ValueError):
        GateDef(Gate.CNOT, (1, 1))
    with pytest.raises(ValueError):
        GateDef(Gate.RZ, (0,))  # missing angle
    with pytest.raises(ValueError):
        GateDef(Gate.X, (0,), (0.5,))  # spurious parameter


def test_gatedef_of_an_unknown_gate_name_is_a_usage_error():
    with pytest.raises(UnknownGateError, match="FOO") as info:
        GateDef("FOO", (0,))
    assert info.value.exit_code == 2
