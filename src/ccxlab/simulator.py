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
matrices. Each gate compiles to one local channel on its own wires: the
ideal unitary, then depolarizing noise on the gate's qubits, then thermal
relaxation on each of its qubits, the placement order documented in
:mod:`ccxlab.noise`. That matrix is cached on the ``NoiseModel`` instance,
keyed by the gate, so each channel builder runs once per distinct gate of a
model, and both paths below read the one cached matrix. What a model caches:
each gate's local channel, its embedding into each register size, and each
readout map, all read-only; :mod:`ccxlab.experiments` adds each run's exact
outcome table. Nothing here caches a state or a ``run_density`` result.

Per qubit: in this vec convention a layer whose gates and channels each act
on one qubit is a tensor product of 4 x 4 maps, so it never needs the whole
register. Two layers are like that:

* ``product_states`` prepares states with one-qubit gates only, as process
  tomography's probes are. Each distinct gate sequence on a wire evolves
  once, on that wire's 2 x 2 state, and each state is the tensor product of
  its wires' states.
* ``readout_map`` compiles measurement. Each wire's distinct rotation gives
  one 2 x 4 map: readout confusion . diagonal . readout relaxation . the
  rotation's gates. Each setting's 2^n x 4^n block is the tensor product of
  its wires' maps. The blocks stack into one (settings x 2^n, 4^n) map that
  ``setting_distributions`` applies to vec(rho), cached on the model.

Both multiply the wires in from wire 0 up. That is the order in which a
dense evolution, wire by wire, forms each entry, so noise-free they give its
bits exactly.

Dense: every other circuit runs on the whole register, gate by gate. That
covers the Toffoli and state tomography's GHZ, W and UNIFORM inputs. Each
gate's local channel reaches the register by copying its entries into place,
cached keyed by (gate, register size). On registers of up to
``_DENSE_SUPEROP_MAX_QUBITS`` qubits it is the dense 4^n x 4^n matrix and a
gate is one matrix product; larger registers keep the 4^k x 4^k channel on
the gate's own k wires and contract it into vec(rho), so memory stays
O(4^n). A channel is linear, so a stack of states, as the columns of one
(4^n, batch) array, goes through each gate in one product: ``run_density``
evolves many prepared states through a shared circuit that way.

Outcome distributions and counts are arrays indexed by basis state: bit q of
the index is the outcome of qubit q, the little-endian order of states.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .circuits import Circuit, _apply_local
from .errors import CcxlabError, NonNativeGateError, UsageError
from .gates import NATIVE_GATES, GateDef, gate_matrix
from .noise import NoiseModel, depolarizing_channel, thermal_relaxation_channel

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
    superop.setflags(write=False)
    return superop


def _local_channel(g: GateDef, nm: NoiseModel) -> np.ndarray:
    """``_gate_superop``, compiled once per gate and model: every register size reads it."""
    return nm.compiled(("channel", g), lambda: _gate_superop(g, nm))


def _compiled_gate(g: GateDef, nm: NoiseModel, n: int) -> Tuple[np.ndarray, tuple]:
    return nm.compiled(("gate", g, n),
                       lambda: _compile(_local_channel(g, nm), sorted(g.qubits), n))


@lru_cache(maxsize=16)
def _wire_layout(circuits: Tuple[Circuit, ...]) -> Tuple[Tuple[tuple, np.ndarray], ...]:
    """Per wire q of native circuits of one-qubit gates: the distinct gate sequences on q, and
    the index of each circuit's own sequence among them. Built once per tuple of circuits."""
    for c in circuits:
        _check_native(c)
        for g in c.gates:
            if len(g.qubits) != 1:
                raise UsageError(f"{g.name.value} on {g.qubits} acts on more than one qubit; "
                                 "a per-qubit layer takes one-qubit gates only")
    layout = []
    for q in range(circuits[0].num_qubits):
        distinct: dict = {}
        index = np.array([distinct.setdefault(tuple(g for g in c.gates if g.qubits == (q,)),
                                              len(distinct)) for c in circuits])
        index.setflags(write=False)
        layout.append((tuple(distinct), index))
    return tuple(layout)


def _per_wire(circuits: Sequence[Circuit],
              evolve: Callable[[int, Tuple[GateDef, ...]], np.ndarray]) -> list:
    """Per wire q, the stack over ``circuits`` of ``evolve(q, gates)``, ``gates`` a circuit's
    gates on q; each distinct (q, gates) is evolved once."""
    return [np.stack([evolve(q, gates) for gates in distinct])[index]
            for q, (distinct, index) in enumerate(_wire_layout(tuple(circuits)))]


def _wire_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of per-wire factors, ``factors[0]`` on wire 0.

    Each factor has a leading batch axis and then one axis of size 2 per
    index of its wire (row and column of a state; outcome, row and column of
    a readout map). The result keeps the batch axis and has one axis of size
    2^n per index, wire 0 its lowest bit. The factors are multiplied in from
    wire 0 up, the order in which a dense evolution of wire 0's gates, then
    wire 1's, and so on, forms each entry, so noise-free entries agree with
    it bit for bit.
    """
    out = factors[0]
    for factor in factors[1:]:
        batch, sizes = out.shape[0], out.shape[1:]
        high = factor.reshape([batch] + [d for size in factor.shape[1:] for d in (size, 1)])
        low = out.reshape([batch] + [d for size in sizes for d in (1, size)])
        out = (high * low).reshape([batch] + [2 * size for size in sizes])
    return out


def product_states(preparations: Sequence[Circuit], nm: NoiseModel) -> np.ndarray:
    """The (2^n, 2^n, P) stack of the states ``preparations`` prepare from |0...0> under ``nm``.

    Every preparation is a native circuit of one-qubit gates, so under the
    local channels of ``nm`` it prepares a product state: each distinct gate
    sequence on a wire evolves once, on that wire's 2 x 2 state, and each
    state is the tensor product of its wires' states. A gate on two qubits
    raises ``UsageError``.
    """
    def evolve(q: int, gates: Tuple[GateDef, ...]) -> np.ndarray:
        vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # |0><0|
        for g in gates:
            vec = _local_channel(g, nm) @ vec
        return vec.reshape(2, 2)

    return np.moveaxis(_wire_product(_per_wire(preparations, evolve)), 0, -1)


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
                preparations: Optional[Union[Sequence[Circuit], np.ndarray]] = None) -> np.ndarray:
    """The density matrix of ``c`` run on |0...0> under ``nm``, checked for trace drift and
    made exactly Hermitian. Given ``preparations``, the (2^n, 2^n, P) stack of ``c`` run
    after each of them: ``c`` evolves the P prepared states at once. They are circuits, each
    evolved whole from |0...0>, or the (2^n, 2^n, P) stack of states they prepared, such as
    ``product_states`` builds."""
    start = np.zeros((2 ** c.num_qubits,) * 2, dtype=complex)
    start[0, 0] = 1.0
    if isinstance(preparations, np.ndarray):
        start = preparations
    elif preparations is not None:
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
    relaxation . rotation, shape (len(rotations) * 2^n, 4^n), built per wire.
    Each rotation is a circuit of one-qubit gates; a gate on two qubits raises
    ``UsageError``. A model with
    zero confusion, such as ``NOISELESS``, reads out perfectly: its confusion
    matrix is exactly the identity. The map is cached on ``nm`` next to its
    compiled gates, keyed by the rotations, so a model builds it once per
    distinct list of rotations (``NOISELESS`` once per process).
    """
    rotations = tuple(rotations)
    return nm.compiled(("readout", rotations), lambda: _readout_map(rotations, nm))


def _readout_map(rotations: Tuple[Circuit, ...], nm: NoiseModel) -> np.ndarray:
    # every layer of a readout acts on one qubit, so each wire's distinct rotation gives one
    # 2 x 4 map, confusion . diagonal . readout relaxation . rotation, and each setting is
    # their tensor product. The maps are multiplied in from the diagonal: in that order a
    # noise-free map has the bits of the whole-register construction in tests/readout_oracle.py
    n = rotations[0].num_qubits
    readouts = []  # per qubit: its confusion, and diagonal . readout relaxation
    for q in range(n):
        cal = nm.calibration(q)
        p10, p01 = cal.prob_meas1_prep0, cal.prob_meas0_prep1
        relaxed = np.zeros((2, 4), dtype=complex)
        relaxed[0, 0] = relaxed[1, 3] = 1.0  # outcome b reads the diagonal entry |b><b|
        if cal.readout_length_ns > 0:
            relaxed = relaxed @ thermal_relaxation_channel(cal.readout_length_ns,
                                                           cal.t1_us, cal.t2_us)
        # column-stochastic: columns index the true outcome
        readouts.append((np.array([[1 - p10, p01], [p10, 1 - p01]]), relaxed))

    def wire_map(q: int, gates: Tuple[GateDef, ...]) -> np.ndarray:
        confusion, m = readouts[q]
        for g in reversed(gates):
            m = m @ _local_channel(g, nm)
        return (confusion @ m).reshape(2, 2, 2)

    table = _wire_product(_per_wire(rotations, wire_map)).reshape(len(rotations) * 2 ** n, -1)
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


def sample_distribution(distributions: np.ndarray, shots: int, seed: Tuple[int, ...]) -> np.ndarray:
    """Seeded multinomial counts of ``shots`` draws from each distribution of a table.

    Outcomes are on the last axis, indexed by basis state. Every cell draws,
    row-major, from one generator seeded with the tuple ``seed``: the only
    random generator the package builds.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    return np.random.default_rng(seed).multinomial(shots, distributions)
