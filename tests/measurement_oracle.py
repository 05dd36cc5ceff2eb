"""Reference Pauli-basis measurement of exact states, one setting at a time.

Nothing in ``ccxlab`` uses this. It is the independent oracle for the outcome
distributions the package reads off a ``simulator.readout_map``: each qubit is
rotated by its own 2x2 basis change (H for X, H S^dagger for Y, nothing for Z)
and the Z-basis populations are read off directly. Distributions are indexed
by basis state, bit q of the index being the outcome of qubit q.
"""

import numpy as np

from ccxlab.gates import gate_matrix, h, sdg
from ccxlab.qmath import I2
from ccxlab.tomography import qst_settings

from product_oracle import kron_le

_H = gate_matrix(h(0))
_ROTATION = {"X": _H, "Y": _H @ gate_matrix(sdg(0)), "Z": I2}


def measurement_probabilities(state, setting):
    """Outcome distribution of a state vector or density matrix measured in ``setting``."""
    state = np.asarray(state, dtype=complex)
    rotation = kron_le([_ROTATION[letter] for letter in setting])
    rotated = rotation @ state
    if state.ndim == 1:
        probs = np.abs(rotated) ** 2
    else:
        probs = np.real(np.diag(rotated @ rotation.conj().T))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def setting_distributions(state, n):
    """Outcome distributions of every setting in ``qst_settings(n)`` order, shape (3^n, 2^n)."""
    return np.array([measurement_probabilities(state, setting) for setting in qst_settings(n)])
