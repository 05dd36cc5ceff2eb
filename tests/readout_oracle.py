"""The readout map built gate by gate on the whole register, as an oracle.

This is how ``simulator.readout_map`` built its table before each wire got
its own map: the diagonal of vec(rho) evolves, transposed, through the
readout relaxation of every qubit and then through each setting's rotation
gates in reverse, each as its transposed local superoperator applied to the
n-qubit register, and the 2^n x 2^n readout confusion reads the result.
"""

import numpy as np

from ccxlab import simulator
from ccxlab.noise import thermal_relaxation_channel

from product_oracle import kron_le


def confusion_matrix(nm, n):
    """Column-stochastic 2^n x 2^n readout confusion of the first n qubits of ``nm``."""
    return kron_le([np.array([[1 - c.prob_meas1_prep0, c.prob_meas0_prep1],
                              [c.prob_meas1_prep0, 1 - c.prob_meas0_prep1]])
                    for c in nm.qubit_cal[:n]])


def readout_map(rotations, nm):
    """The stacked (len(rotations) * 2^n, 4^n) map from vec(rho) to every setting's outcomes."""
    n = rotations[0].num_qubits
    dim = 2 ** n
    diagonal = np.zeros((dim * dim, dim), dtype=complex)
    diagonal[np.arange(dim) * (dim + 1), np.arange(dim)] = 1.0
    for q in reversed(range(n)):
        cal = nm.calibration(q)
        if cal.readout_length_ns > 0:
            relax = thermal_relaxation_channel(cal.readout_length_ns, cal.t1_us, cal.t2_us)
            diagonal = simulator._apply_superop(diagonal, relax.T, [q], n)
    confusion = confusion_matrix(nm, n)
    blocks = []
    for rotation in rotations:
        block = diagonal
        for g in reversed(rotation.gates):
            block = simulator._apply_superop(block, simulator._local_channel(g, nm).T,
                                             sorted(g.qubits), n)
        blocks.append(confusion @ block.T)
    return np.concatenate(blocks)
