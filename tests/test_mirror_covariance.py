"""Mirror covariance of the whole pipeline: the line 0-1-2 read backwards is the same line.

Map every gate's wires q -> 2 - q and reverse the model's qubit records. The
exact tables permute, the estimates become P rho P for the qubit reversal P,
and the fidelity against P psi (QST) or the Choi ket of P U P (QPT) must equal
the unmirrored one. Preparation, gate, readout map, linear inversion, probe
dual, projection and fidelity all take part, through the functions runs use.
"""

import functools

import numpy as np
import pytest

from ccxlab import experiments
from ccxlab.calibration import ingest_calibration
from ccxlab.circuits import Circuit, validate_connectivity
from ccxlab.gates import GateDef
from ccxlab.noise import NOISELESS, NoiseModel, QubitCalibration
from ccxlab.qmath import state_fidelity
from ccxlab.simulator import product_states, run_density
from ccxlab.states import StateKind, prepare_state, target_state
from ccxlab.synthesis import (DecompositionStrategy, certify_toffoli, decompose_toffoli,
                              toffoli_unitary)
from ccxlab.tomography import choi_ket_of_unitary, probe_alphabet, qpt_reconstruct, qst_reconstruct

TOFFOLI = decompose_toffoli(DecompositionStrategy.ECR_NATIVE, (0, 1), 2)
U = toffoli_unitary((0, 1), 2)
#: the qubit reversal on 3 qubits: basis index b0 + 2 b1 + 4 b2 -> b2 + 2 b1 + 4 b0
P = np.eye(8)[[int(f"{i:03b}"[::-1], 2) for i in range(8)]]


@functools.lru_cache(maxsize=None)
def _model(name):
    if name == "NOISELESS":
        return NOISELESS
    if name == "three-records":
        # Brisbane's gates on three qubit records that differ in T1, T2, both confusions and
        # the readout length, so a wire read as its mirror image moves the numbers
        brisbane = _model("brisbane_median")
        return NoiseModel((QubitCalibration(180.0, 120.0, 0.030, 0.010, 1300.0),
                           QubitCalibration(260.0, 90.0, 0.015, 0.025, 800.0),
                           QubitCalibration(120.0, 200.0, 0.020, 0.005, 2000.0)),
                          brisbane.gate_error, brisbane.gate_duration)
    return ingest_calibration(f"builtin:{name}").noise_model(3)


def _mirror(circuit):
    return Circuit(3, tuple(GateDef(g.name, tuple(2 - q for q in g.qubits), g.params)
                            for g in circuit.gates))


def _mirror_model(nm):
    """``nm`` with the records of qubits 0, 1 and 2 in reverse order."""
    return NoiseModel(nm.qubit_cal[2::-1], nm.gate_error, nm.gate_duration)


def _qst_fidelity(preparation, toffoli, nm, ket):
    prepared = run_density(preparation, nm)[..., None]
    table = experiments._distributions(prepared, toffoli, nm)
    return state_fidelity(qst_reconstruct(table, 3)[0], ket)


def _qpt_fidelity(toffoli, nm, ket):
    table = experiments._distributions(product_states(probe_alphabet(), 3, nm), toffoli, nm)
    return state_fidelity(qpt_reconstruct(table, 3), ket)


MODELS = ["NOISELESS", "brisbane_median", "sherbrooke_median", "three-records"]


def test_the_mirrored_toffoli_is_a_toffoli_on_the_line():
    mirrored = _mirror(TOFFOLI)
    assert validate_connectivity(mirrored) == []
    assert certify_toffoli(mirrored, (2, 1), 0).equivalent
    assert np.array_equal(toffoli_unitary((2, 1), 0), P @ U @ P)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", list(StateKind))
def test_qst_fidelity_is_mirror_covariant(model, kind):
    nm, psi = _model(model), U @ target_state(kind)
    direct = _qst_fidelity(prepare_state(kind), TOFFOLI, nm, psi)
    mirrored = _qst_fidelity(_mirror(prepare_state(kind)), _mirror(TOFFOLI), _mirror_model(nm),
                             P @ psi)
    assert abs(mirrored - direct) <= 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_qpt_fidelity_is_mirror_covariant(model):
    nm = _model(model)
    direct = _qpt_fidelity(TOFFOLI, nm, choi_ket_of_unitary(U))
    mirrored = _qpt_fidelity(_mirror(TOFFOLI), _mirror_model(nm), choi_ket_of_unitary(P @ U @ P))
    assert abs(mirrored - direct) <= 1e-12


def test_a_mirror_that_keeps_the_record_order_moves_the_qpt_fidelity():
    # the test of the tests above: on the three-record model a wire read as its mirror image
    # costs far more than their 1e-12. The packaged models broadcast one record, so there the
    # same mistake moves nothing
    nm = _model("three-records")
    direct = _qpt_fidelity(TOFFOLI, nm, choi_ket_of_unitary(U))
    kept = _qpt_fidelity(_mirror(TOFFOLI), nm, choi_ket_of_unitary(P @ U @ P))
    assert abs(kept - direct) > 1e-6
