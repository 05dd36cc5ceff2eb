"""Execution of native circuits: density evolution, readout maps and sampling.

Only the native gate set {ECR, ID, RZ, SX, X} runs; compile everything else
first (``circuit_unitary`` in :mod:`ccxlab.circuits` handles arbitrary
catalog gates for oracle math). There is one evolution for every mode: a
noise-free run is a run under ``noise.NOISELESS``, whose channels are all
the identity. ``run_density`` refuses a circuit wider than
``circuits.MAX_QUBITS`` before it allocates anything. Measurement sampling
is seeded and deterministic: identical (table, shots, seed) always gives
the identical counts. ``sample_distribution`` rounds each distribution to 12
decimals before it draws, so tables that differ only in round-off, such as
the same table summed in another order, draw identical counts too.

Density matrices evolve as row-major vec(rho), vec(rho)[i * d + j] =
rho[i, j], under superoperators in the convention of Wood, Biamonte & Cory
(arXiv:1111.6950): vec(A rho B) = (A (x) B^T) vec(rho), so a unitary U lifts
to U (x) conj(U); :mod:`ccxlab.noise` builds its channels directly as such
matrices. Each gate compiles to one local channel on its own wires: the
ideal unitary, then depolarizing noise on the gate's qubits, then thermal
relaxation on each of its qubits, the placement order documented in
:mod:`ccxlab.noise`. That matrix is cached on the ``NoiseModel`` instance,
keyed by the gate, so each channel builder runs once per distinct gate of a
model, and both paths below read the one cached matrix. The gate channels
are all a model caches here; :mod:`ccxlab.experiments` adds each run's exact
outcome table. Blocks, readout maps and states are rebuilt per call.

Per qubit: in this vec convention a layer whose gates and channels each act
on one qubit is a tensor product of 4 x 4 maps, so it never needs the whole
register. Two layers are like that, and each takes an alphabet, a list of
native one-qubit circuits, and a number of wires n. Each letter evolves once
per wire, moved onto that wire so the wire's own calibration applies, and
the layer forms every product of one letter per wire, in
``itertools.product(alphabet, repeat=n)`` order, wire 0 slowest:

* ``product_states`` prepares product states, as process tomography's
  probes are: each (wire, letter) evolves on that wire's 2 x 2 state.
* ``readout_map`` compiles measurement. Each (wire, letter) gives one 2 x 4
  map: readout confusion . diagonal . readout relaxation . the letter's
  rotation. The settings' 2^n x 4^n blocks stack into one
  (settings x 2^n, 4^n) map that ``setting_distributions`` applies to
  vec(rho).

Both multiply the wires in from wire 0 up. That is the order in which a
dense evolution, wire by wire, forms each entry, so noise-free they give its
bits exactly.

Dense: every other circuit runs on the whole register, in fused blocks, the
gate fusion of state-vector simulators (Haener & Steiger, arXiv:1704.01127).
That covers the Toffoli and state tomography's GHZ, W and UNIFORM inputs.
``_blocks`` gives each gate on two or more wires a block, which the
one-qubit gates around it on those wires join, and each wire that no such
gate touches one block of its own. A block's channel is the product of its
gates' local channels, each wire's run of one-qubit gates composed as 4 x 4
maps first; the 44 gates of the ECR-native Toffoli make 8 blocks, one per
ECR. Each block reaches the register by copying its entries into place. On
registers of up to ``_DENSE_SUPEROP_MAX_QUBITS`` qubits it is the dense
4^n x 4^n matrix and a block is one matrix product; larger registers keep
the 4^k x 4^k channel on the block's own k <= 2 wires and contract it into
vec(rho), so memory stays O(4^n). Fusing reorders the products, so a table
moves by round-off (~2e-16) against gate-by-gate evolution. A channel is
linear, so a stack of states, as the columns of one (4^n, batch) array,
goes through each block in one product: ``run_density`` evolves a stack of
prepared states through a shared circuit that way.

Outcome distributions and counts are arrays indexed by basis state: bit q of
the index is the outcome of qubit q, the little-endian order of states.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .circuits import MAX_QUBITS, Circuit, _apply_local
from .errors import CcxlabError, NonNativeGateError, TooManyQubitsError, UsageError
from .gates import NATIVE_GATES, GateDef, gate_matrix
from .noise import NoiseModel, depolarizing_channel, thermal_relaxation_channel

#: registers up to this size apply each compiled block as a dense 4^n x 4^n
#: superoperator (64 x 64 at three qubits); larger ones contract the block's
#: local superoperator into vec(rho) on its own wires. Per block application
#: (one BLAS thread): 3 qubits ~4 us dense vs ~25 us local; 4 qubits ~18 vs
#: ~25-30 us, at 1 MB per dense block; 5 qubits ~0.9 ms vs ~38 us.
_DENSE_SUPEROP_MAX_QUBITS = 3

#: ``sample_distribution`` draws from each distribution rounded to this many decimals: far
#: above the ~1e-16 round-off of a table, far below the 1/shots resolution of its counts
_DRAW_DECIMALS = 12


def _check_native(c: Circuit) -> None:
    for g in c.gates:
        if g.name not in NATIVE_GATES:
            raise NonNativeGateError(
                f"gate {g.name.value} is not in the native set; synthesize it first")


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


def _blocks(c: Circuit) -> Tuple[Tuple[Tuple[int, ...], Tuple[GateDef, ...]], ...]:
    """The fused blocks of a native circuit, in the order they apply: (sorted wires, gates).

    Each gate on two or more wires starts a block on those wires. A one-qubit
    gate joins the latest block on its wire or, before any exists, the next
    multi-qubit block on that wire. The one-qubit gates of a wire that no
    multi-qubit gate touches form one block for that wire, after the others,
    wire 0 first. Every gate falls in exactly one block, and each wire's gates
    keep their order: a gate only moves past gates on other wires, which
    commute with it, so the blocks' product is the circuit's.
    """
    _check_native(c)
    blocks = []
    latest: dict = {}  # wire -> the gate list of the latest block on it
    waiting: dict = {q: [] for q in range(c.num_qubits)}  # one-qubit gates before any block
    for g in c.gates:
        if len(g.qubits) > 1:
            wires = tuple(sorted(g.qubits))
            gates = [w for q in wires for w in waiting.pop(q, [])] + [g]
            blocks.append((wires, gates))
            latest.update((q, gates) for q in wires)
        elif g.qubits[0] in latest:
            latest[g.qubits[0]].append(g)
        else:
            waiting[g.qubits[0]].append(g)
    blocks += [((q,), gates) for q, gates in waiting.items() if gates]
    return tuple((wires, tuple(gates)) for wires, gates in blocks)


def _block_channel(wires: Tuple[int, ...], gates: Sequence[GateDef], nm: NoiseModel) -> np.ndarray:
    """Superoperator of one block on its sorted ``wires``: the product of its gates' cached
    ``_local_channel``s. Each run of one-qubit gates on a wire is composed as 4 x 4 maps and
    embedded once, just before the next multi-qubit gate or at the end."""
    k = len(wires)
    superop = None
    runs: dict = {}  # wire -> its one-qubit gates since the last multi-qubit gate, composed

    def then(channel: np.ndarray, on: Sequence[int]) -> None:
        nonlocal superop
        if len(on) < k:
            channel = _embed(channel, _vec_wires([wires.index(q) for q in on], k), 2 * k)
        superop = channel if superop is None else channel @ superop

    for g in gates:
        channel = _local_channel(g, nm)
        if len(g.qubits) == 1:
            q = g.qubits[0]
            runs[q] = channel @ runs[q] if q in runs else channel
        else:
            for q, run in runs.items():
                then(run, [q])
            runs.clear()
            then(channel, sorted(g.qubits))
    for q, run in runs.items():
        then(run, [q])
    return superop


def _letters_on_wires(alphabet: Sequence[Circuit], n: int,
                      evolve: Callable[[int, Tuple[GateDef, ...]], np.ndarray]) -> list:
    """Per wire q < n, the stack over ``alphabet`` of ``evolve(q, gates)``, ``gates`` a
    letter's gates moved onto q, where q's own calibration applies.

    Every letter must be a native one-qubit circuit: anything else raises
    ``UsageError``, a gate outside the native set ``NonNativeGateError``.
    """
    if not alphabet or n < 1:
        raise UsageError("a per-qubit layer needs at least one letter and one wire")
    for letter in alphabet:
        if not isinstance(letter, Circuit) or letter.num_qubits != 1:
            raise UsageError(f"a per-qubit layer takes one-qubit circuits only, got {letter!r}")
        _check_native(letter)
    return [np.stack([evolve(q, tuple(GateDef(g.name, (q,), g.params) for g in letter.gates))
                      for letter in alphabet]) for q in range(n)]


def _wire_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Every tensor product of per-wire factors, one factor from each wire, ``factors[0]`` on
    wire 0.

    Each factor has a leading axis over a wire's letters and then one axis of
    size 2 per index of its wire (row and column of a state; outcome, row and
    column of a readout map). The result has one leading axis over every
    choice of letters, in ``itertools.product`` order with wire 0 slowest, and
    one axis of size 2^n per index, wire 0 its lowest bit. The factors are
    multiplied in from wire 0 up, the order in which a dense evolution of wire
    0's gates, then wire 1's, and so on, forms each entry, so noise-free
    entries agree with it bit for bit.
    """
    out = factors[0]
    for factor in factors[1:]:
        batch, sizes = out.shape[0] * factor.shape[0], out.shape[1:]
        high = factor.reshape([1, -1] + [d for size in factor.shape[1:] for d in (size, 1)])
        low = out.reshape([-1, 1] + [d for size in sizes for d in (1, size)])
        out = (high * low).reshape([batch] + [2 * size for size in sizes])
    return out


def product_states(alphabet: Sequence[Circuit], n: int, nm: NoiseModel) -> np.ndarray:
    """The (2^n, 2^n, len(alphabet)^n) stack of the product states an alphabet prepares.

    Each letter is a native one-qubit circuit, such as ``probe_circuit((label,))``.
    It evolves from |0><0| once per wire, on that wire's 2 x 2 state, under the
    local channels of ``nm``; the stack holds every tensor product of one
    letter's state per wire, in ``itertools.product(alphabet, repeat=n)``
    order, wire 0 slowest.
    """
    def evolve(q: int, gates: Tuple[GateDef, ...]) -> np.ndarray:
        vec = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # |0><0|
        for g in gates:
            vec = _local_channel(g, nm) @ vec
        return vec.reshape(2, 2)

    return np.moveaxis(_wire_product(_letters_on_wires(alphabet, n, evolve)), 0, -1)


def apply_circuit_density(rho: np.ndarray, c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Evolve a density matrix, or a (2^n, 2^n, batch) stack of them, through a native circuit.

    Per gate: ideal unitary, then depolarizing noise on the gate's qubits,
    then thermal relaxation on each participating qubit for the gate's
    duration. The gates apply in fused blocks (``_blocks``), one superoperator
    per block built from the gates' cached channels, to the stack's columns at
    once.
    """
    n = c.num_qubits
    rho = np.asarray(rho, dtype=complex)
    vecs = rho.reshape((4 ** n,) + rho.shape[2:])
    for wires, gates in _blocks(c):
        vecs = _apply_superop(vecs, _compile(_block_channel(wires, gates, nm), wires, n), n)
    return vecs.reshape(rho.shape)


def run_density(c: Circuit, nm: NoiseModel,
                preparations: Optional[np.ndarray] = None) -> np.ndarray:
    """The density matrix of ``c`` run on |0...0> under ``nm``, checked for trace drift and
    made exactly Hermitian. Given ``preparations``, a (2^n, 2^n, P) stack of prepared states
    such as ``product_states`` builds, the stack of ``c`` run on each of them, evolved at
    once."""
    if c.num_qubits > MAX_QUBITS:
        raise TooManyQubitsError(f"density evolution limited to {MAX_QUBITS} qubits")
    if preparations is None:
        preparations = np.zeros((2 ** c.num_qubits,) * 2, dtype=complex)
        preparations[0, 0] = 1.0
    rho = apply_circuit_density(preparations, c, nm)
    tr = np.trace(rho)
    if not np.max(np.abs(tr - 1.0)) < 1e-8:  # NaN-safe
        raise CcxlabError(f"density trace drifted to {tr}")
    return (rho + rho.swapaxes(0, 1).conj()) / 2


def readout_map(alphabet: Sequence[Circuit], n: int, nm: NoiseModel) -> np.ndarray:
    """The stacked map from vec(rho) to the outcome distribution of every setting.

    Each letter is a native one-qubit measurement rotation, such as
    ``measurement_rotation(letter)``; the settings are every choice of one
    letter per wire, in ``itertools.product(alphabet, repeat=n)`` order, wire 0
    slowest. Setting s rotates each wire by its letter under ``nm``, relaxes
    every qubit for its readout length, measures Z and applies the readout
    confusion of ``nm``. Per wire and letter that is one 2 x 4 map, readout
    confusion . diagonal . readout relaxation . rotation, multiplied in from
    the diagonal: in that order a noise-free map has the bits of the
    whole-register construction in tests/readout_oracle.py. Each setting's
    block is the tensor product of its wires' maps; the result has shape
    (len(alphabet)^n * 2^n, 4^n). A model with zero
    confusion, such as ``NOISELESS``, reads out perfectly: its confusion
    matrix is exactly the identity.
    """
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

    return _wire_product(_letters_on_wires(alphabet, n, wire_map)).reshape(-1, 4 ** n)


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

    Each distribution is rounded to ``_DRAW_DECIMALS`` decimals and
    renormalized before it draws. A multinomial draws no random number for a
    cell of probability exactly 0, so a round-off zero of ~1e-17 would shift
    every later draw, and the order of a product's summation (BLAS, CPU,
    fused gates) moves such bits. Rounded, the same table draws the same
    counts however it was computed. Only the draw rounds: an exact
    distribution is used as it was computed.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    rounded = np.round(distributions, _DRAW_DECIMALS)
    return np.random.default_rng(seed).multinomial(
        shots, rounded / rounded.sum(axis=-1, keepdims=True))
