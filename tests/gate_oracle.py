"""Density evolution one gate at a time, as an oracle for ``simulator.apply_circuit_density``.

Each gate's cached local channel acts alone, in circuit order, contracted
into vec(rho) on the gate's own wires with ``np.tensordot``. Only the local
channel is shared with the simulator, not its index gather, and the two
agree bit for bit.
"""

import numpy as np

from ccxlab import simulator

from contraction_oracle import apply_local


def evolve(rho, circuit, nm):
    """``rho``, or a (2^n, 2^n, batch) stack, through ``circuit`` under ``nm``, gate by gate."""
    n = circuit.num_qubits
    rho = np.asarray(rho, dtype=complex)
    # row-major vec(rho) as a 2n-qubit tensor: column bits low, row bits n above them
    tensor = rho.reshape([2] * (2 * n) + list(rho.shape[2:]))
    for g in circuit.gates:
        wires = sorted(g.qubits)
        tensor = apply_local(tensor, simulator._local_channel(g, nm),
                             wires + [n + q for q in wires], 2 * n)
    return tensor.reshape(rho.shape)
