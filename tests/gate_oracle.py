"""Density evolution one gate at a time, as an oracle for the fused blocks.

This is how ``simulator.apply_circuit_density`` ran a circuit before its
gates were fused: each gate's cached local channel acts alone, in circuit
order, contracted into vec(rho) on the gate's own wires. Only the local
channel is shared with the simulator; no block, embedding or compiled
product is.
"""

import numpy as np

from ccxlab import simulator
from ccxlab.circuits import _apply_local


def evolve(rho, circuit, nm):
    """``rho``, or a (2^n, 2^n, batch) stack, through ``circuit`` under ``nm``, gate by gate."""
    n = circuit.num_qubits
    rho = np.asarray(rho, dtype=complex)
    # row-major vec(rho) as a 2n-qubit tensor: column bits low, row bits n above them
    tensor = rho.reshape([2] * (2 * n) + list(rho.shape[2:]))
    for g in circuit.gates:
        wires = sorted(g.qubits)
        tensor = _apply_local(tensor, simulator._local_channel(g, nm),
                              wires + [n + q for q in wires], 2 * n)
    return tensor.reshape(rho.shape)
