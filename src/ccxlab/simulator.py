"""Execution of native circuits: density evolution, readout maps and sampling.

Only the native gate set {ECR, ID, RZ, SX, X} runs; compile everything else
first (``circuit_unitary`` in :mod:`ccxlab.circuits` handles arbitrary
catalog gates for oracle math). There is one evolution for every mode: a
noise-free run is a run under ``noise.NOISELESS``, whose channels are all
the identity. ``run_density`` refuses a circuit wider than
``circuits.MAX_QUBITS`` before it allocates anything. Measurement sampling
is seeded and deterministic: identical (table, shots, seed) always gives
the identical counts. ``draws`` samples a table's ``draw_form``, each
distribution rounded to 12 decimals, so tables that differ only in
round-off, such as the same table summed in another order, draw identical
counts too. The form is rounded once per table, not once per seed: a run
caches it with its exact table (see :mod:`ccxlab.experiments`), and
every repeat's seed draws from that one form. ``sample_distribution`` rounds
a table and draws one seed from it, bit for bit what ``draws`` gives that
seed.

Density matrices evolve as row-major vec(rho), vec(rho)[i * d + j] =
rho[i, j], under superoperators in the convention of Wood, Biamonte & Cory
(arXiv:1111.6950): vec(A rho B) = (A (x) B^T) vec(rho), so a unitary U lifts
to U (x) conj(U); :mod:`ccxlab.noise` builds its channels directly as such
matrices. Each gate compiles to one local channel on its own wires: the
ideal unitary, then depolarizing noise on the gate's qubits, then thermal
relaxation on each of its qubits, the placement order documented in
:mod:`ccxlab.noise`. ``_local_channel`` keeps that matrix in an
``lru_cache`` keyed by (gate, model), the most recently used
``_CHANNELS`` of them, so each channel builder runs once per distinct gate
of a model, and both paths below read the one cached matrix. The gate
channels are all this module caches; :mod:`ccxlab.experiments` caches each
run's exact outcome table. Readout maps and states are rebuilt per call.

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

Dense: every other circuit runs on the whole register, one gate at a time
in circuit order. That covers the Toffoli and state tomography's GHZ, W and
UNIFORM inputs. One primitive, ``circuits._apply_local``, puts every local
map where it acts: one gather of the entries it touches, one matrix product
and one scatter. It applies each gate's relaxation to the gate's channel,
and each gate's 4^k x 4^k channel, on its own k <= 2 wires, to the
register, the same way at every size, so memory stays O(4^n). A channel is
linear, so a stack of states, the columns of one (4^n, batch) array, goes
through each gate in one product: ``run_density`` evolves a stack of
prepared states through a shared circuit that way. Gates are not fused: a
run evolves once per exact table, which is cached, so on a 3-qubit register
fusing would save little and would reorder gates across wires.

Outcome distributions and counts are arrays indexed by basis state: bit q of
the index is the outcome of qubit q, the little-endian order of states.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .circuits import MAX_QUBITS, Circuit, _apply_local
from .errors import CcxlabError, UsageError
from .gates import NATIVE_GATES, GateDef, gate_matrix
from .noise import NoiseModel, depolarizing_channel, thermal_relaxation_channel

#: ``draw_form`` rounds each distribution to this many decimals: far
#: above the ~1e-16 round-off of a table, far below the 1/shots resolution of its counts
_DRAW_DECIMALS = 12

#: the most shots ``draws`` takes: numpy draws multinomial counts as int64
MAX_SHOTS = int(np.iinfo(np.int64).max)

#: gate channels ``_local_channel`` keeps: a model that ran every QST input and QPT holds 26
#: (``NOISELESS`` too, the inversion maps' included), so 4 calibration models and
#: ``NOISELESS`` need 130; at most 4 KB each (a two-qubit channel), ~1 MB in all
_CHANNELS = 256


def check_native(c: Circuit, remedy: str = "synthesize it first") -> None:
    """Raise a ``UsageError`` naming the first gate of ``c`` outside the native set."""
    for g in c.gates:
        if g.name not in NATIVE_GATES:
            raise UsageError(f"gate {g.name.value} is not in the native set; {remedy}")


# -- superoperators ------------------------------------------------------------

def _vec_wires(wires: Sequence[int], n: int) -> list:
    """The wires of vec(rho), read as a 2n-qubit vector, that a map on ``wires`` acts on.

    Row-major vec puts the column index in the low n bits and the row index in
    the high n bits, so a local superoperator indexed (row, column) acts on
    the column wires and, n above them, the row wires.
    """
    return list(wires) + [n + q for q in wires]


def _apply_superop(vecs: np.ndarray, superop: np.ndarray, wires: Sequence[int],
                   n: int) -> np.ndarray:
    """Apply a local superoperator on the sorted ``wires`` of an n-qubit register to vec(rho);
    trailing axes of ``vecs`` are a batch."""
    return _apply_local(vecs, superop, _vec_wires(wires, n), 2 * n)


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
            superop = _apply_local(superop, relax, _vec_wires([wires.index(q)], k), 2 * k)
    superop.setflags(write=False)
    return superop


@functools.lru_cache(maxsize=_CHANNELS)
def _local_channel(g: GateDef, nm: NoiseModel) -> np.ndarray:
    """``_gate_superop``, compiled once per gate and model: every register size reads it."""
    return _gate_superop(g, nm)


def _letters_on_wires(alphabet: Sequence[Circuit], n: int,
                      evolve: Callable[[int, Tuple[GateDef, ...]], np.ndarray]) -> list:
    """Per wire q < n, the stack over ``alphabet`` of ``evolve(q, gates)``, ``gates`` a
    letter's gates moved onto q, where q's own calibration applies.

    Every letter must be a native one-qubit circuit, with gates from the
    native set: anything else raises ``UsageError``.
    """
    if not alphabet or n < 1:
        raise UsageError("a per-qubit layer needs at least one letter and one wire")
    for letter in alphabet:
        if not isinstance(letter, Circuit) or letter.num_qubits != 1:
            raise UsageError(f"a per-qubit layer takes one-qubit circuits only, got {letter!r}")
        check_native(letter)
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
    duration. Each gate's cached ``_local_channel`` applies in circuit order
    to the stack's columns at once.
    """
    check_native(c)
    n = c.num_qubits
    rho = np.asarray(rho, dtype=complex)
    vecs = rho.reshape((4 ** n,) + rho.shape[2:])
    for g in c.gates:
        vecs = _apply_superop(vecs, _local_channel(g, nm), sorted(g.qubits), n)
    return vecs.reshape(rho.shape)


def run_density(c: Circuit, nm: NoiseModel,
                preparations: Optional[np.ndarray] = None) -> np.ndarray:
    """The density matrix of ``c`` run on |0...0> under ``nm``, checked for trace drift and
    made exactly Hermitian. Given ``preparations``, a (2^n, 2^n, P) stack of prepared states
    such as ``product_states`` builds, the stack of ``c`` run on each of them, evolved at
    once."""
    if c.num_qubits > MAX_QUBITS:
        raise UsageError(f"density evolution limited to {MAX_QUBITS} qubits")
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
    (len(alphabet)^n * 2^n, 4^n). Zero readout confusion makes the confusion
    matrix exactly the identity, but readout relaxation still acts for each
    qubit's ``readout_length_ns``; only a model that also has zero readout
    lengths, such as ``NOISELESS``, reads out perfectly; a zero readout window
    takes the identity without building a relaxation channel.
    """
    readouts = []  # per qubit: its confusion, and diagonal . readout relaxation
    for q in range(n):
        cal = nm.calibration(q)
        p10, p01 = cal.prob_meas1_prep0, cal.prob_meas0_prep1
        # outcome b reads the diagonal entry |b><b| of the relaxed state: rows 0 and 3 of vec;
        # a zero window builds no channel, so a noise-free table builds none
        relaxed = (thermal_relaxation_channel(cal.readout_length_ns, cal.t1_us, cal.t2_us)
                   if cal.readout_length_ns > 0 else np.eye(4, dtype=complex))[[0, 3]]
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
    reads bit for bit what it reads alone. A matrix-matrix product would
    sum in another order, so a stack entry would differ from its single call
    by round-off. Seeded counts would not move, since a draw reads the table's
    ``draw_form``, but exact-probability runs read the unrounded table.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    vecs = np.ascontiguousarray(rho.reshape(dim * dim, -1).T)[..., None]  # (batch, 4^n, 1)
    probs = np.clip(np.real(table @ vecs).reshape(rho.shape[2:] + (-1, dim)), 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def draw_form(distributions: np.ndarray) -> np.ndarray:
    """The read-only table ``draws`` samples: each distribution of ``distributions``
    rounded to ``_DRAW_DECIMALS`` decimals and renormalized.

    A multinomial draws no random number for a cell of probability exactly 0,
    so a round-off zero of ~1e-17 would shift every later draw, and the order
    of a product's summation (BLAS, CPU, the grouping of gates) moves such bits.
    Rounded, the same table draws the same counts however it was computed.
    ``distributions`` itself is not changed.
    """
    rounded = np.round(np.asarray(distributions, dtype=float), _DRAW_DECIMALS)
    rounded /= rounded.sum(axis=-1, keepdims=True)
    rounded.setflags(write=False)
    return rounded


def draws(form: np.ndarray, shots: int, seeds: Iterable[Tuple[int, ...]]) -> Iterator[np.ndarray]:
    """Seeded multinomial counts of ``shots`` draws from each distribution of a
    ``draw_form``, one table of counts per seed, lazily and in seed order.

    Outcomes are on the last axis, indexed by basis state. Each seed's table
    draws every cell, row-major, from one generator seeded with that tuple:
    the only random generator the package builds. So a seed's counts do not
    depend on the seeds drawn before it, and ``sample_distribution`` gives
    each of them alone. ``form`` is drawn from as it is: round a table with
    ``draw_form`` once, then draw any number of seeds from it. ``shots`` outside
    1..``MAX_SHOTS`` is a ``UsageError``, raised at the call and not at the first draw.
    """
    if not 0 < shots <= MAX_SHOTS:
        raise UsageError(f"shots must be positive and at most {MAX_SHOTS}, got {shots}")
    return (np.random.default_rng(seed).multinomial(shots, form) for seed in seeds)


def sample_distribution(distributions: np.ndarray, shots: int, seed: Tuple[int, ...]) -> np.ndarray:
    """Seeded multinomial counts of ``shots`` draws from each distribution of a table: its
    ``draw_form`` drawn by ``draws`` for the one seed, bit for bit."""
    return next(draws(draw_form(distributions), shots, (seed,)))
