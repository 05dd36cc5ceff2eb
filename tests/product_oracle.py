"""Oracle: tensor products built by hand, one factor per qubit.

Pauli strings and probe kets as explicit Kronecker products, for the tests
to check the package's own maps against. Qubit 0 is the least-significant
bit of a basis index (little-endian), as in :mod:`ccxlab.qmath`.
"""

import math
from typing import Sequence

import numpy as np

from ccxlab.errors import UsageError
from ccxlab.qmath import I2, X
from ccxlab.states import PROBE_LABELS

Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}

_PROBE_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
}


def kron_le(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of per-qubit operators, ``ops[0]`` acting on qubit 0.

    Little-endian: the qubit-0 factor is the Kronecker minor (fastest) index.
    """
    out = np.eye(1, dtype=complex)
    for op in reversed(list(ops)):
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def pauli_string_matrix(letters: str) -> np.ndarray:
    """Matrix of a Pauli string over {I, X, Y, Z}; letters[j] acts on qubit j."""
    return kron_le([PAULI_1Q[c] for c in letters])


def probe_state(labels: Sequence[str]) -> np.ndarray:
    """Product state of per-qubit probes, labels[0] on qubit 0."""
    out = np.array([1.0 + 0j])
    for lab in reversed(list(labels)):
        if lab not in _PROBE_KETS:
            raise UsageError(f"probe label {lab!r} not in {PROBE_LABELS}")
        out = np.kron(out, _PROBE_KETS[lab])
    return out
