"""Oracle: a local operator contracted into a register with ``np.tensordot``.

The state (or operator, or vec(rho)) is a tensor with one axis of size 2 per
qubit, axis a holding qubit n-1-a, so qubit 0 is the least-significant bit of
a flat index (little-endian). The local operator contracts with the axes of
its wires and the result's axes move back into place. It shares nothing with
the package's index gather (``ccxlab.circuits._apply_local``), which the
tests check against it.
"""

import numpy as np


def apply_local(tensor: np.ndarray, local: np.ndarray, wires, n: int) -> np.ndarray:
    """Contract ``local`` (on sorted wires, little-endian) into a state tensor.

    ``tensor`` has one axis per qubit (axis a = qubit n-1-a) plus optional
    trailing batch axes.
    """
    k = len(wires)
    g = local.reshape([2] * (2 * k))
    taxes = [n - 1 - q for q in reversed(wires)]
    out = np.tensordot(g, tensor, axes=(list(range(k, 2 * k)), taxes))
    return np.moveaxis(out, range(k), taxes)
