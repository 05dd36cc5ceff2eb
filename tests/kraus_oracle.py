"""Reference noisy density evolution as explicit Kraus sums, one gate at a time.

This is the operator-sum simulation the compiled superoperators in
``ccxlab.simulator`` must reproduce. Per gate: the ideal unitary, then the
depolarizing Kraus sum on the gate's qubits, then the thermal-relaxation Kraus
sum on each of its qubits for the gate's duration (RZ is virtual and noiseless).
A measurement setting applies the native rotation circuit under the same
noise, thermal relaxation on every qubit for its readout length, and then the
readout confusion on the Z-basis distribution.

Density matrices may carry one trailing batch axis, shape (d, d, B), so many
inputs evolve through the same circuit together.

The channels are built here as Kraus operators, independently of the
closed-form superoperators in ``ccxlab.noise``: ``KrausChannel`` checks that
its operators resolve the identity, and ``depolarizing_kraus`` and
``thermal_relaxation_kraus`` are the operator-sum forms those superoperators
must equal.
"""

import math
from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np

from ccxlab.circuits import _apply_local
from ccxlab.gates import Gate, gate_matrix
from ccxlab.qmath import I2, PAULI_1Q, dagger, kron_le
from ccxlab.tomography import measurement_rotation, qst_settings


@dataclass(frozen=True)
class KrausChannel:
    """Operator-sum map; operators must resolve the identity within 1e-8."""

    operators: Tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        dim = ops[0].shape[0]
        total = sum(dagger(k) @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(dim)))
        if dev > 1e-8:
            raise ValueError(f"Kraus operators are not trace preserving (dev {dev:.3e})")

    def superop(self):
        """Row-major superoperator, sum_k K_k (x) conj(K_k)."""
        return sum(np.kron(k, k.conj()) for k in self.operators)


def thermal_relaxation_kraus(duration_ns, t1_us, t2_us):
    """Amplitude damping (gamma = 1 - exp(-t/T1)) after pure dephasing at 1/T2 - 1/(2 T1)."""
    t_us = duration_ns / 1000.0
    gamma = 1.0 - math.exp(-t_us / t1_us) if not math.isinf(t1_us) else 0.0
    rate_phi = (1.0 / t2_us if not math.isinf(t2_us) else 0.0) \
        - (0.5 / t1_us if not math.isinf(t1_us) else 0.0)
    p_z = (1.0 - math.exp(-t_us * max(rate_phi, 0.0))) / 2.0
    ad = [np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
          np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)]
    deph = [math.sqrt(1 - p_z) * I2, math.sqrt(p_z) * PAULI_1Q["Z"]]
    return KrausChannel(tuple(a @ d for a in ad for d in deph))


def depolarizing_kraus(err, dim):
    """(1 - lam) rho + lam I/dim, lam = err dim / (dim - 1), as the identity and every
    non-identity Pauli product on log2(dim) qubits."""
    lam = err * dim / (dim - 1)
    d2 = dim * dim
    ops = [math.sqrt(1 - lam * (d2 - 1) / d2) * np.eye(dim, dtype=complex)]
    for letters in product("IXYZ", repeat=int(round(math.log2(dim)))):
        if set(letters) != {"I"}:
            ops.append(math.sqrt(lam) / dim * kron_le([PAULI_1Q[c] for c in letters]))
    return KrausChannel(tuple(ops))


def _num_qubits(rho):
    return int(round(np.log2(rho.shape[0])))


def _apply_unitary(rho, local, wires, n):
    tensor = rho.reshape([2] * (2 * n) + list(rho.shape[2:]))
    tensor = _apply_local(tensor, local, wires, n)             # left factor
    tensor = np.moveaxis(tensor, range(n), range(n, 2 * n))    # transpose to act on bras
    tensor = _apply_local(tensor, local.conj(), wires, n)
    tensor = np.moveaxis(tensor, range(n), range(n, 2 * n))
    return tensor.reshape(rho.shape)


def _apply_kraus(rho, channel, wires, n):
    out = np.zeros_like(rho)
    for k in channel.operators:
        out = out + _apply_unitary(rho, k, wires, n)
    return out


def evolve(rho, circuit, nm):
    """``rho`` through ``circuit``: unitary, depolarizing, thermal relaxation per gate."""
    n = circuit.num_qubits
    for g in circuit.gates:
        wires = sorted(g.qubits)
        rho = _apply_unitary(rho, gate_matrix(g), wires, n)
        if nm is None or g.name is Gate.RZ:
            continue
        err = nm.error_for(g.name)
        if err > 0.0:
            rho = _apply_kraus(rho, depolarizing_kraus(err, 2 ** len(wires)), wires, n)
        duration = nm.duration_for(g.name)
        if duration > 0.0:
            for q in g.qubits:
                cal = nm.calibration(q)
                channel = thermal_relaxation_kraus(duration, cal.t1_us, cal.t2_us)
                rho = _apply_kraus(rho, channel, [q], n)
    return rho


def run_density(circuit, nm):
    """Hermitian part of the state ``circuit`` prepares from |0...0> under ``nm``."""
    rho = np.zeros((2 ** circuit.num_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    rho = evolve(rho, circuit, nm)
    return (rho + rho.conj().T) / 2


def _readout_confusion(probs, confusions):
    n = int(np.log2(len(probs)))
    tensor = np.asarray(probs, dtype=float).reshape([2] * n)
    for q, (p10, p01) in enumerate(confusions[:n]):
        if p10 == 0.0 and p01 == 0.0:
            continue
        conf = np.array([[1 - p10, p01], [p10, 1 - p01]])
        axis = n - 1 - q
        tensor = np.tensordot(conf, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    out = tensor.reshape(-1)
    return out / out.sum()


def readout_relaxation(rho, nm):
    """Thermal relaxation of every qubit for its readout length."""
    n = _num_qubits(rho)
    for q in range(n):
        cal = nm.calibration(q)
        if cal.readout_length_ns > 0:
            channel = thermal_relaxation_kraus(cal.readout_length_ns, cal.t1_us, cal.t2_us)
            rho = _apply_kraus(rho, channel, [q], n)
    return rho


def setting_distributions(rho, nm, apply_readout=True):
    """Outcome distributions of every setting, shape (3^n, 2^n) or (3^n, 2^n, B)."""
    n = _num_qubits(rho)
    batched = rho.ndim == 3
    if not batched:
        rho = rho[:, :, None]
    confusions = [(c.prob_meas1_prep0, c.prob_meas0_prep1)
                  for c in nm.qubit_cal] if apply_readout else None
    table = []
    for setting in qst_settings(n):
        measured = readout_relaxation(evolve(rho, measurement_rotation(setting), nm), nm)
        probs = np.clip(np.real(np.einsum("iib->ib", measured)), 0.0, None)
        probs /= probs.sum(axis=0)
        if confusions is not None:
            probs = np.stack([_readout_confusion(p, confusions) for p in probs.T], axis=1)
        table.append(probs)
    table = np.stack(table)
    return table if batched else table[:, :, 0]
