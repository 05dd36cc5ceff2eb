import math

import numpy as np
import pytest

from ccxlab import states
from ccxlab.errors import CcxlabError, InvalidLabelError
from ccxlab.simulator import run_statevector
from ccxlab.states import (
    StateKind,
    ghz_circuit,
    prepare_state,
    probe_circuit,
    probe_state,
    target_state,
    uniform_circuit,
    w_circuit,
    w_state,
)

from conftest import basis_circuit, basis_state


def test_uniform_amplitudes():
    psi = run_statevector(uniform_circuit())
    assert np.max(np.abs(psi - np.full(8, 1 / math.sqrt(8)))) < 1e-10


def test_ghz_amplitudes():
    psi = run_statevector(ghz_circuit())
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert np.max(np.abs(psi - expected)) < 1e-10


def test_w_amplitudes():
    psi = run_statevector(w_circuit())
    expected = np.zeros(8)
    expected[1] = expected[2] = expected[4] = 1 / math.sqrt(3)
    assert np.max(np.abs(psi - expected)) < 1e-10


def test_basis_circuit():
    for index in range(8):
        psi = run_statevector(basis_circuit(index))
        assert np.max(np.abs(psi - basis_state(index))) < 1e-12


@pytest.mark.parametrize("labels", [("0", "0", "0"), ("1", "+", "+i"),
                                    ("+i", "+i", "+i"), ("+", "1", "0")])
def test_probe_circuits_exact(labels):
    psi = run_statevector(probe_circuit(labels))
    assert np.max(np.abs(psi - probe_state(labels))) < 1e-10


def test_probe_invalid_label():
    with pytest.raises(InvalidLabelError):
        probe_circuit(("0", "minus", "1"))
    with pytest.raises(InvalidLabelError):
        probe_state(("-",))


def test_prepare_state_dispatch():
    assert [k.value for k in StateKind] == ["GHZ", "W", "UNIFORM"]
    for kind in ("GHZ", "W", "UNIFORM"):
        psi = run_statevector(prepare_state(kind))
        assert np.max(np.abs(psi - target_state(kind))) < 1e-10
    for kind in ("BASIS", "PROBE"):
        with pytest.raises(ValueError):
            prepare_state(kind)
        with pytest.raises(ValueError):
            target_state(kind)


def test_global_phase_fix_rejects_unreached_target():
    with pytest.raises(CcxlabError, match="does not reach its target") as info:
        states._fix_global_phase(ghz_circuit(), w_state())
    assert info.value.exit_code == 4
