"""Execution of native circuits: density evolution, readout maps and sampling.

Only the native gate set {ECR, ID, RZ, SX, X} runs; compile everything else
first (``circuit_unitary`` in :mod:`ccxlab.circuits` handles arbitrary
catalog gates for oracle math). There is one evolution for every mode: a
noise-free run is a run under ``noise.NOISELESS``, whose channels are all
the identity. ``run_statevector`` stays as the exact pure-state reference
that the state builders and ``ccxlab simulate`` use. Measurement sampling is
seeded and deterministic: identical (table, shots, seed) always gives the
identical counts.

Density matrices evolve as row-major vec(rho), vec(rho)[i * d + j] =
rho[i, j], under superoperators in the convention of Wood, Biamonte & Cory
(arXiv:1111.6950): vec(A rho B) = (A (x) B^T) vec(rho), so a unitary U lifts
to U (x) conj(U); :mod:`ccxlab.noise` builds its channels directly as such
matrices. Each gate compiles to one superoperator: the ideal unitary, then
depolarizing noise on the gate's qubits, then thermal relaxation on each of
its qubits, the placement order documented in :mod:`ccxlab.noise`; maps
reach a larger register by copying their entries into place. The compiled
superoperator is cached on the ``NoiseModel`` instance, keyed by (gate,
register size), so each channel builder runs once per distinct gate of a
model. On registers of up to ``_DENSE_SUPEROP_MAX_QUBITS`` qubits it is the
dense 4^n x 4^n matrix and a gate is one matrix product; larger registers
keep the 4^k x 4^k superoperator on the gate's own k wires and contract it
into vec(rho), so memory stays O(4^n). A channel is linear, so a stack of
states, as the columns of one (4^n, batch) array, goes through each gate in
one product: ``run_density`` evolves many preparations through a shared
circuit that way. ``readout_map`` compiles measurement the same way, and
caches the result on the model too: per setting, readout confusion .
diagonal . readout relaxation . the rotation circuit, stacked into one
(settings x 2^n, 4^n) map that ``setting_distributions`` applies to
vec(rho).

Outcome distributions and counts are arrays indexed by basis state: bit q of
the index is the outcome of qubit q, the little-endian order of states.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .circuits import Circuit, _apply_local
from .errors import CcxlabError, NonNativeGateError
from .gates import NATIVE_GATES, GateDef, gate_matrix
from .noise import NoiseModel, depolarizing_channel, thermal_relaxation_channel
from .qmath import kron_le

#: registers up to this size apply each compiled gate as a dense 4^n x 4^n
#: superoperator (64 x 64 at three qubits); larger ones contract the gate's
#: local superoperator into vec(rho) on its own wires. Per gate application
#: (one BLAS thread): 3 qubits ~4 us dense vs ~25 us local; 4 qubits ~18 vs
#: ~25-30 us, at 1 MB per dense gate; 5 qubits ~0.9 ms vs ~38 us.
_DENSE_SUPEROP_MAX_QUBITS = 3


def _check_native(c: Circuit) -> None:
    for g in c.gates:
        if g.name not in NATIVE_GATES:
            raise NonNativeGateError(
                f"gate {g.name.value} is not in the native set; synthesize it first")


def run_statevector(c: Circuit) -> np.ndarray:
    """Exact state of the native circuit applied to |0...0>."""
    _check_native(c)
    n = c.num_qubits
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    tensor = psi.reshape([2] * n)
    for g in c.gates:
        tensor = _apply_local(tensor, gate_matrix(g), sorted(g.qubits), n)
    psi = tensor.reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) < 1e-10:  # NaN-safe
        raise CcxlabError("state norm drifted")
    return psi


# -- superoperators ------------------------------------------------------------

def _vec_wires(wires: Sequence[int], n: int) -> list:
    """The wires of vec(rho), read as a 2n-qubit vector, that a map on ``wires`` acts on.

    Row-major vec puts the column index in the low n bits and the row index in
    the high n bits, so a local superoperator indexed (row, column) acts on
    the column wires and, n above them, the row wires.
    """
    return list(wires) + [n + q for q in wires]


@lru_cache(maxsize=None)
def _embedding(wires: Tuple[int, ...], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(flat positions in the 2^n x 2^n embedding, flat positions in the local map) of each
    copied entry: (r, c) holds local (r_w, c_w), r_w the bits of r on ``wires``, where r
    and c agree on every other wire; the rest are 0."""
    index = np.arange(2 ** n)
    local = sum(((index >> w) & 1) << j for j, w in enumerate(wires))
    rest = index & ~sum(1 << w for w in wires)
    rows, cols = np.nonzero(rest[:, None] == rest[None, :])
    return rows * 2 ** n + cols, local[rows] * 2 ** len(wires) + local[cols]


def _embed(local: np.ndarray, wires: Sequence[int], n: int) -> np.ndarray:
    """``local`` on the sorted ``wires`` as a full 2^n x 2^n matrix, by copying its entries."""
    full_at, local_at = _embedding(tuple(wires), n)
    full = np.zeros(4 ** n, dtype=local.dtype)
    full[full_at] = local.reshape(-1)[local_at]
    return full.reshape(2 ** n, 2 ** n)


def _compile(superop: np.ndarray, wires: Sequence[int], n: int) -> Tuple[np.ndarray, tuple]:
    """A local superoperator ready to apply on an n-qubit register, as (matrix, wires).

    Up to ``_DENSE_SUPEROP_MAX_QUBITS`` it is embedded into the whole register.
    """
    if n <= _DENSE_SUPEROP_MAX_QUBITS:
        superop, wires = _embed(superop, _vec_wires(wires, n), 2 * n), range(n)
    superop.setflags(write=False)
    return superop, tuple(wires)


def _apply_superop(vecs: np.ndarray, compiled: Tuple[np.ndarray, tuple], n: int) -> np.ndarray:
    """Apply a compiled superoperator to vec(rho); trailing axes of ``vecs`` are a batch."""
    superop, wires = compiled
    if len(wires) == n:
        return superop @ vecs
    tensor = vecs.reshape([2] * (2 * n) + list(vecs.shape[1:]))
    return _apply_local(tensor, superop, _vec_wires(wires, n), 2 * n).reshape(vecs.shape)


def _gate_superop(g: GateDef, nm: NoiseModel) -> np.ndarray:
    """Superoperator of one gate on its sorted wires: unitary, depolarizing, thermal relaxation."""
    wires = sorted(g.qubits)
    k = len(wires)
    u = gate_matrix(g)
    # U (x) conj(U), entry for entry what np.kron gives, without its overhead
    superop = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4 ** k, 4 ** k)
    err = nm.error_for(g.name)
    if err > 0.0:
        superop = depolarizing_channel(err, 2 ** k) @ superop
    duration = nm.duration_for(g.name)
    if duration > 0.0:
        for q in g.qubits:
            cal = nm.calibration(q)
            relax = thermal_relaxation_channel(duration, cal.t1_us, cal.t2_us)
            superop = _embed(relax, _vec_wires([wires.index(q)], k), 2 * k) @ superop
    return superop


def _compiled_gate(g: GateDef, nm: NoiseModel, n: int) -> Tuple[np.ndarray, tuple]:
    return nm.compiled(("gate", g, n),
                       lambda: _compile(_gate_superop(g, nm), sorted(g.qubits), n))


def apply_circuit_density(rho: np.ndarray, c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Evolve a density matrix, or a (2^n, 2^n, batch) stack of them, through a native circuit.

    Per gate: ideal unitary, then depolarizing noise on the gate's qubits,
    then thermal relaxation on each participating qubit for the gate's
    duration, applied as the gate's compiled superoperator (cached on ``nm``)
    to the stack's columns at once.
    """
    _check_native(c)
    n = c.num_qubits
    rho = np.asarray(rho, dtype=complex)
    vecs = rho.reshape((4 ** n,) + rho.shape[2:])
    for g in c.gates:
        vecs = _apply_superop(vecs, _compiled_gate(g, nm, n), n)
    return vecs.reshape(rho.shape)


def run_density(c: Circuit, nm: NoiseModel,
                preparations: Optional[Sequence[Circuit]] = None) -> np.ndarray:
    """The density matrix of ``c`` run on |0...0> under ``nm``, checked for trace drift and
    made exactly Hermitian. Given ``preparations``, the (2^n, 2^n, P) stack of ``c`` run
    after each of them: ``c`` evolves the P prepared states at once."""
    start = np.zeros((2 ** c.num_qubits,) * 2, dtype=complex)
    start[0, 0] = 1.0
    if preparations is not None:
        start = np.stack([apply_circuit_density(start, p, nm) for p in preparations], axis=-1)
    rho = apply_circuit_density(start, c, nm)
    tr = np.trace(rho)
    if not np.max(np.abs(tr - 1.0)) < 1e-8:  # NaN-safe
        raise CcxlabError(f"density trace drifted to {tr}")
    return (rho + rho.swapaxes(0, 1).conj()) / 2


def readout_map(rotations: Sequence[Circuit], nm: NoiseModel) -> np.ndarray:
    """The stacked map from vec(rho) to the outcome distribution of every setting.

    Setting s applies the native circuit ``rotations[s]`` under ``nm``, thermal
    relaxation of every qubit for its readout length, a Z measurement and the
    readout confusion of ``nm``: rows readout confusion . diagonal . readout
    relaxation . rotation, shape (len(rotations) * 2^n, 4^n). A model with
    zero confusion, such as ``NOISELESS``, reads out perfectly: its confusion
    matrix is exactly the identity. The map is cached on ``nm`` next to its
    compiled gates, keyed by the rotations, so a model builds it once per
    distinct list of rotations (``NOISELESS`` once per process).
    """
    rotations = tuple(rotations)
    return nm.compiled(("readout", rotations), lambda: _readout_map(rotations, nm))


def _readout_map(rotations: Tuple[Circuit, ...], nm: NoiseModel) -> np.ndarray:
    # built transposed: the columns of each block's transpose evolve under the transposed
    # superoperators, last map first, so every step is a product with a (4^n, 2^n) matrix
    n = rotations[0].num_qubits
    dim = 2 ** n
    diagonal = np.zeros((dim * dim, dim), dtype=complex)
    diagonal[np.arange(dim) * (dim + 1), np.arange(dim)] = 1.0
    for q in reversed(range(n)):
        cal = nm.calibration(q)
        if cal.readout_length_ns > 0:
            relax = thermal_relaxation_channel(cal.readout_length_ns, cal.t1_us, cal.t2_us)
            superop, wires = _compile(relax, [q], n)
            diagonal = _apply_superop(diagonal, (superop.T, wires), n)
    confusion = _confusion_matrix(nm.readout_confusions(), n)
    blocks = []
    for rotation in rotations:
        block = diagonal
        for g in reversed(rotation.gates):
            superop, wires = _compiled_gate(g, nm, n)
            block = _apply_superop(block, (superop.T, wires), n)
        blocks.append(confusion @ block.T)
    table = np.concatenate(blocks)
    table.setflags(write=False)
    return table


def setting_distributions(rho: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Outcome distributions of every setting of a ``readout_map``, shape (settings, 2^n).

    One matrix-vector product of the stacked map with vec(rho); each
    distribution is clipped at 0 and normalized. Trailing axes of ``rho`` are
    a batch: a (2^n, 2^n, batch) stack gives (batch, settings, 2^n) from one
    matmul that keeps one matrix-vector product per state, so every state
    reads bit for bit what it reads alone. A matrix-matrix product would move
    round-off zeros of the table, and seeded counts turn on those.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    vecs = np.ascontiguousarray(rho.reshape(dim * dim, -1).T)[..., None]  # (batch, 4^n, 1)
    probs = np.clip(np.real(table @ vecs).reshape(rho.shape[2:] + (-1, dim)), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def _confusion_matrix(confusions: Sequence[Tuple[float, float]], n: int) -> np.ndarray:
    """Column-stochastic 2^n x 2^n readout confusion; qubits past ``confusions`` read perfectly.

    Each entry is (P(1|0), P(0|1)) of one qubit, qubit 0 first; columns index
    the true outcome.
    """
    return kron_le([np.array([[1 - p10, p01], [p10, 1 - p01]]) for p10, p01 in confusions[:n]]
                   + [np.eye(2)] * (n - len(confusions[:n])))


def sample_distribution(distributions: np.ndarray, shots: int, seed: Tuple[int, ...]) -> np.ndarray:
    """Seeded multinomial counts of ``shots`` draws from each distribution of a table.

    Outcomes are on the last axis, indexed by basis state. Every cell draws,
    row-major, from one generator seeded with the tuple ``seed``: the only
    random generator the package builds.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    return np.random.default_rng(seed).multinomial(shots, distributions)
