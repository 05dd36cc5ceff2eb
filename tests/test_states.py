import itertools
import math

import numpy as np
import pytest

from ccxlab.circuits import circuit_unitary
from ccxlab.errors import UsageError
from ccxlab.states import (
    PROBE_LABELS,
    StateKind,
    ghz_circuit,
    prepare_state,
    probe_circuit,
    target_state,
    uniform_circuit,
    w_circuit,
)
from ccxlab.synthesis import equivalent_up_to_global_phase

from conftest import basis_circuit, basis_state
from product_oracle import probe_state


def _prepares(circuit, expected):
    """Whether ``circuit`` prepares ``expected`` from |0...0>, up to a global phase."""
    return equivalent_up_to_global_phase(circuit_unitary(circuit)[:, 0], expected, 1e-10).equivalent


def test_uniform_amplitudes():
    assert _prepares(uniform_circuit(), np.full(8, 1 / math.sqrt(8)))


def test_ghz_amplitudes():
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / math.sqrt(2)
    assert _prepares(ghz_circuit(), expected)


def test_w_amplitudes():
    expected = np.zeros(8)
    expected[1] = expected[2] = expected[4] = 1 / math.sqrt(3)
    assert _prepares(w_circuit(), expected)


def test_basis_circuit():
    for index in range(8):
        psi = circuit_unitary(basis_circuit(index))[:, 0]
        assert np.max(np.abs(psi - basis_state(index))) < 1e-12


@pytest.mark.parametrize("labels", [labels for k in (1, 3)
                                    for labels in itertools.product(PROBE_LABELS, repeat=k)])
def test_probe_circuits_exact(labels):
    assert _prepares(probe_circuit(labels), probe_state(labels))


def test_probe_invalid_label():
    with pytest.raises(UsageError, match=r"^probe label 'minus' not in "):
        probe_circuit(("0", "minus", "1"))
    with pytest.raises(UsageError, match=r"^probe label '-' not in "):
        probe_circuit(("-",))


def test_prepare_state_dispatch():
    assert [k.value for k in StateKind] == ["GHZ", "W", "UNIFORM"]
    for kind in ("GHZ", "W", "UNIFORM"):
        assert _prepares(prepare_state(kind), target_state(kind))
    for kind in ("BASIS", "PROBE"):
        with pytest.raises(ValueError):
            prepare_state(kind)
        with pytest.raises(ValueError):
            target_state(kind)
