"""State and process tomography: experiment generation and reconstruction.

State tomography measures all 3^k Pauli-basis settings. Its data is a
(3^k, 2^k) array of outcome frequencies: row j is setting j in
``qst_settings`` order, column b is basis outcome b, whose bit q is the
outcome of qubit q. Linear inversion is one fixed linear map,
``_real_estimator(k)``, that takes those rows, stacked, to vec(rho). It is the
least-squares inverse (M^H M)^-1 M^H of the map M that the simulator itself
measures with: ``simulator.readout_map`` of the X, Y and Z rotations under
``NOISELESS``, whose rows are the settings' outcome projectors. M^H M is
their frame operator. It maps each Pauli string P to 3^(k - |supp P|) P,
one term per setting that covers P, so it is diagonal in the Pauli basis
and positive definite. The inverse therefore gives
rho = (1/2^k) sum_P <P> P, where <P> is the parity of P's support averaged
over every setting that covers it (Greenbaum, arXiv:1509.02921).

Process tomography prepares the 4^k products of {|0>, |1>, |+>, |+i>} and
measures 3^k settings per preparation (12^k circuits). Its data is a
(4^k, 3^k, 2^k) array, one state-tomography array per probe, probes in
``itertools.product(PROBE_LABELS, repeat=k)`` order. So the same map gives
every *unprojected* output estimate in one product. ``_probe_dual(k)``, the
inverse of the matrix of the probe states that ``simulator.product_states``
prepares under ``NOISELESS``, turns them into the channel's superoperator,
which is regrouped into the Choi operator and replaced by the
Frobenius-nearest completely-positive trace-preserving (CPTP) Choi
operator. The inversion map and each dual are built once per process,
read-only.

The frequencies are real and the map is complex, so the one cached copy of
the map is its transpose with each entry's real and imaginary parts side by
side; ``.view(complex).T`` reads it back as the complex map. One real product
per preparation gives the estimate's real and imaginary parts, interleaved as
a complex array is, with no complex cast of the frequencies. It sums in
another order than a complex product would, so the two estimates differ by
round-off (~1e-16).

State tomography is the case of zero input qubits: one preparation, whose
dual ``_probe_dual(0)`` is [[1]], and a Choi matrix of input dimension 1,
which is a state. So both estimators are one function, ``_reconstruct``:
linear inversion, the dual, the regroup and one projection to the nearest
CPTP Choi matrix, which at d_in = 1 is the nearest density matrix. There
the dual [[1]] multiplies each entry by exactly 1 and the regroup moves no
entry, so a state's estimate is its linear inversion, bit for bit. Linear
inversion followed by one such projection is the estimator Surawy-Stepney,
Kahn, Kueng & Guta analyse (arXiv:2107.01060).

Both estimators, and ``project_to_cptp``, also take a stack of inputs on a
leading axis, one per repeat, and give each entry exactly its single call's
result: linear inversion takes one product per entry. At d_in = 1 the
projection is closed-form water-filling, so a stack of states takes one
batched ``eigh``; at d_in > 1 the CPTP projection iterates per Choi matrix.

The per-probe estimates stay unprojected on purpose: projecting them first
biases the channel estimate like a global depolarization; unbiased probe
estimates plus a single CPTP projection at the end track the sampling-only
fidelity loss.

Choi convention: block (m, n) of the unnormalized Choi operator holds
E(|m><n|), one d_out x d_out block per pair of input indices; the normalized
form divides by the input dimension d_in.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, List, Tuple

import numpy as np

from .circuits import Circuit
from .errors import CcxlabError, UsageError
from .gates import h, sdg
from .noise import NOISELESS
from .qmath import check_unitary, dagger
from .simulator import product_states, readout_map
from .states import PROBE_LABELS, probe_circuit
from .synthesis import to_native


#: per Pauli letter, the logical gates (in application order, as constructors
#: of one wire) that rotate its eigenbasis onto Z before a Z measurement
MEASUREMENT_BASES = {"X": (h,), "Y": (sdg, h), "Z": ()}


def qst_settings(k: int) -> List[str]:
    """All 3^k measurement settings in lexicographic order (X < Y < Z)."""
    if not 1 <= k <= 4:
        raise UsageError(f"k={k} outside 1..4")
    return ["".join(p) for p in itertools.product("XYZ", repeat=k)]


@functools.lru_cache(maxsize=None)
def measurement_rotation(setting: str) -> Circuit:
    """Native circuit rotating each qubit so a Z measurement reads the setting.

    Built once per setting and process: a circuit is immutable, and lowering
    it costs far more than reading every setting's distribution off a map.
    """
    k = len(setting)
    if k == 0 or any(ch not in "XYZ" for ch in setting):
        raise UsageError(f"setting {setting!r} must be letters over X/Y/Z")
    return to_native(Circuit(k, tuple(gate(q) for q, letter in enumerate(setting)
                                      for gate in MEASUREMENT_BASES[letter])))


def setting_alphabet() -> List[Circuit]:
    """The X, Y and Z rotations, whose ``readout_map`` a run measures with under its model and
    ``_real_estimator`` inverts under ``NOISELESS``."""
    return [measurement_rotation(letter) for letter in "XYZ"]


def probe_alphabet() -> List[Circuit]:
    """The one-qubit probes, whose ``product_states`` a run prepares under its model and
    ``_probe_dual`` inverts under ``NOISELESS``."""
    return [probe_circuit((label,)) for label in PROBE_LABELS]


def _checked(frequencies: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim == len(shape) + 1:
        shape = frequencies.shape[:1] + shape
    if frequencies.shape != shape:
        raise CcxlabError(
            f"frequencies must have shape {shape}, got {frequencies.shape}")
    return frequencies


@functools.lru_cache(maxsize=None)
def _real_estimator(k: int) -> np.ndarray:
    """Linear inversion as a real (3^k * 2^k, 2 * 4^k) map from stacked frequencies to vec(rho).

    Row-major vec. It is the least-squares inverse (M^H M)^-1 M^H of the
    noise-free measurement map M, the ``readout_map`` of the X, Y and Z
    rotations under ``NOISELESS`` (the module docstring says why it averages
    each Pauli's parity), transposed, with each complex entry as its real
    and imaginary parts side by side: ``.view(complex).T`` is that complex
    map itself. A row of frequencies times it is the row's vec(rho) as
    interleaved (real, imaginary) pairs, which ``.view(complex)`` reads
    without a copy: one real product, where the complex map would first
    cast every frequency to complex and take four real products per entry.
    """
    qst_settings(k)  # raises UsageError outside 1..4
    m = readout_map(setting_alphabet(), k, NOISELESS)
    m_h = m.conj().T
    parts = np.ascontiguousarray(np.linalg.solve(m_h @ m, m_h).T).view(float)
    parts.setflags(write=False)
    return parts


def qst_reconstruct(frequencies: np.ndarray, k: int) -> np.ndarray:
    """Density matrix from Pauli-setting frequencies (linear inversion + projection).

    ``frequencies`` has shape (3^k, 2^k): row j holds the outcome frequencies
    of ``qst_settings(k)[j]``, indexed by basis outcome (bit q = qubit q).
    The linear-inversion estimate is replaced by the Frobenius-nearest
    density matrix: ``project_to_cptp``'s result at input dimension 1.

    A stack of R such arrays, shape (R, 3^k, 2^k), gives R density matrices,
    entry r exactly the single call's on ``frequencies[r]``.
    """
    frequencies = _checked(frequencies, (3 ** k, 2 ** k))
    return _reconstruct(frequencies[..., None, :, :], k, _probe_dual(0))


# -- process tomography ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _probe_dual(k: int) -> np.ndarray:
    """Inverse of the matrix whose columns are the vectorized noise-free probe states, as
    ``product_states`` prepares them under ``NOISELESS``; [[1]] at k = 0."""
    if k == 0:
        dual = np.ones((1, 1), dtype=complex)
    else:
        probes = product_states(probe_alphabet(), k, NOISELESS)
        dual = np.linalg.inv(probes.reshape(4 ** k, 4 ** k))
    dual.setflags(write=False)
    return dual


def choi_ket_of_unitary(u: np.ndarray) -> np.ndarray:
    """Unit ket (I (x) U)|Omega> / sqrt(dim), Omega = sum_i |ii>, input index major.

    Its projector is the normalized Choi matrix of the unitary channel, the
    target of process tomography; ``state_fidelity`` scores a Choi estimate
    against the ket directly.
    """
    u = check_unitary(u)
    # block i of the ket is column i of U
    return u.T.reshape(-1) / math.sqrt(u.shape[0])


def _partial_trace_out(xi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.einsum("...mpnp->...mn", xi.reshape(xi.shape[:-2] + (d_in, d_out, d_in, d_out)))


def _choi_dims(choi: np.ndarray, d_in: int) -> Tuple[int, int]:
    """(d_in, d_out) of Choi matrices of side d_in * d_out, stacked or not; rejects NaN/inf."""
    shape = choi.shape[-2:]
    if choi.ndim < 2 or shape[0] != shape[1] or shape[0] == 0 or d_in < 1 or shape[0] % d_in:
        raise CcxlabError(
            f"a Choi matrix must be (d_in * d_out) x (d_in * d_out) with d_in = {d_in}, "
            f"got shape {choi.shape}")
    if not np.all(np.isfinite(choi)):
        raise CcxlabError("a Choi matrix must have finite entries")
    return d_in, shape[0] // d_in


def tp_deviation(choi: np.ndarray, d_in: int) -> float:
    """Max-abs deviation of Tr_out(choi * d_in) from the identity, over a stack too."""
    choi = np.asarray(choi)
    d_in, d_out = _choi_dims(choi, d_in)
    return float(np.max(np.abs(_partial_trace_out(choi * d_in, d_in, d_out) - np.eye(d_in))))


#: max-abs TP residual at which ``project_to_cptp`` stops; its round-off
#: floor is ~1e-13 for a 3-qubit Choi matrix
CPTP_TP_TOL = 1e-11
#: Newton steps before ``project_to_cptp`` gives up (4-7 are typical)
CPTP_MAX_NEWTON_STEPS = 50


def _dual(c: np.ndarray, lam: np.ndarray) -> tuple:
    """Spectrum of C + Lam (x) I and the dual objective 1/2 ||[.]_+||^2 - Tr Lam.

    C + Lam (x) I is C with Lam added on its d_out output diagonals: viewed as
    (d_in, d_out, d_in, d_out), a copy of C takes Lam at [:, s, :, s] for each
    output index s, one indexed addition and no Kronecker product. Each such
    entry is the same single sum C + Lam[m, k] that C + np.kron(Lam, I) forms.
    Every other entry keeps C's value; adding the Kronecker product's exact
    zero there would change at most the sign of a zero. ``c`` itself stays
    unchanged, since each line-search trial reads it again.
    """
    d_in, s = len(lam), np.arange(len(c) // len(lam))  # s runs over the output indices
    m = c.copy()
    m.reshape(d_in, len(s), d_in, len(s))[:, s, :, s] += lam
    w, v = np.linalg.eigh(m)
    return w, v, _dual_objective(w, lam)


def _dual_objective(w: np.ndarray, lam: np.ndarray) -> float:
    positive = w[w.searchsorted(0.0, side="right"):]  # w ascends, as eigh returns it
    return 0.5 * (positive @ positive) - lam.trace().real


def _water_level(w: np.ndarray, total: float) -> np.ndarray:
    """The shift mu that makes the positive part of w + mu sum to ``total``, per last axis.

    Water-filling (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)): with
    w_1 >= w_2 >= ..., mu is the least of (total - w_1 - ... - w_r) / r over
    r, reached at the number of entries of w + mu that stay positive. ``w``
    is ascending, as ``eigh`` returns it; the result keeps its last axis.
    """
    tails = w[..., ::-1].cumsum(axis=-1)
    return ((total - tails) / np.arange(1, w.shape[-1] + 1)).min(axis=-1, keepdims=True)


def _jacobian_weights(w: np.ndarray) -> np.ndarray:
    """The rows of the positive eigenvalues in Qi & Sun's divided-difference matrix.

    ``w`` is ascending, as ``eigh`` returns it, so its r positive entries
    are the last r. Row i holds w_i / (w_i - w_j) against each non-positive
    w_j and 1/2 against each positive one: half the full matrix's weight 1,
    because ``_tp_jacobian`` adds the Hermitian conjugate of that block.
    Rows of non-positive eigenvalues carry weight only against positive
    ones, so the conjugate covers them too. Shape (r, len(w)).
    """
    low = w.searchsorted(0.0, side="right")
    positive = w[low:, None]
    weights = np.full((len(w) - low, len(w)), 0.5)
    weights[:, :low] = positive / (positive - w[None, :low])
    return weights


def _tp_jacobian(v: np.ndarray, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Generalized Jacobian of Lam -> Tr_out [C + Lam (x) I]_+, as the map that applies it to h.

    That is Tr_out V (Omega o V^H (h (x) I) V) V^H for the divided
    differences Omega, computed as Tr_out P + (Tr_out P)^H with P = V_a B and
    B = (Omega_a o ((h (x) I) V_a)^H V) V^H: V_a is the last r columns of V
    and Omega_a the r rows ``_jacobian_weights`` gives. h is Hermitian, so
    ((h (x) I) V_a)^H is V_a^H (h (x) I), and (h (x) I) V_a takes one
    d_in x d_in x r d_out product. B then takes two r x n x n products, where
    the dense form costs four n x n x n ones, and Tr_out P needs only a
    d_in x r d_out x d_in one; r = 0 gives 0. V_a and V^H are formed once
    per map, not once per product.
    """
    n = v.shape[0]
    r = weights.shape[0]
    va = np.ascontiguousarray(v[:, n - r:])  # so that its (d_in, r d_out) view needs no copy
    v_h = dagger(v)

    def apply(h: np.ndarray) -> np.ndarray:
        d_in = h.shape[0]
        d_out = n // d_in
        hva = (h @ va.reshape(d_in, d_out * r)).reshape(n, r)  # (h (x) I) V_a
        b = (weights * (dagger(hva) @ v)) @ v_h
        # Tr_out(V_a B)[m, k] = sum over output s and column j of V_a[(m, s), j] B[j, (k, s)]
        t = va.reshape(d_in, d_out * r) @ \
            b.reshape(r, d_in, d_out).transpose(2, 0, 1).reshape(d_out * r, d_in)
        return t + dagger(t)

    return apply


def _conjugate_gradient(apply, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Solve apply(h) = b for a self-adjoint positive-definite map on Hermitian matrices."""
    h = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = np.vdot(r, r).real
    for _ in range(max_iter):
        if np.sqrt(rr) <= tol:
            break
        ap = apply(p)
        alpha = rr / np.vdot(p, ap).real
        h += alpha * p
        r -= alpha * ap
        rr_next = np.vdot(r, r).real
        p = r + (rr_next / rr) * p
        rr = rr_next
    return h


def project_to_cptp(choi: np.ndarray, d_in: int) -> np.ndarray:
    """Frobenius-nearest CPTP Choi matrix to a normalized Choi estimate of input dimension d_in.

    ``choi`` is n x n, n = d_in * d_out. With X = d_in * choi and C its
    Hermitian part, the nearest CPTP point is X = [C + Lam (x) I]_+ for the
    Hermitian d_in x d_in multiplier Lam of the trace-preservation (TP)
    constraint Tr_out X = I; [.]_+ keeps the non-negative part of the
    spectrum. Lam minimizes the dual 1/2 ||[C + Lam (x) I]_+||^2 - Tr Lam,
    whose gradient is the TP residual Tr_out X - I.

    At d_in = 1 ``choi`` is a state and the result its nearest density
    matrix. Lam is a scalar, so C + Lam I keeps C's eigenvectors, and Lam is
    the water-filling level of Smolin, Gambetta & Smith (PRL 108, 070502
    (2012)), ``_water_level`` of C's spectrum at total 1. One ``eigh``
    suffices.

    At d_in > 1 Lam is found by the semismooth Newton method of Qi & Sun
    (SIAM J. Matrix Anal. Appl. 28, 360 (2006)) with a partial trace in
    place of their diagonal. Lam starts at (I - Tr_out C) / d_out, which
    gives C + Lam (x) I the trace d_in. Each iterate then moves to the
    water-filling level along the identity: Lam + mu I with mu the
    ``_water_level`` at total d_in of the spectrum in hand, so that
    [C + Lam (x) I]_+ has the trace TP asks for. That mu minimizes the dual
    along I, and a scalar shift keeps the eigenvectors, so it costs no
    ``eigh``. Only the r positive eigenpairs (w_a, V_a) of C + Lam (x) I
    enter a step. They give the gradient Tr_out V_a W_a V_a^H - I as one
    d_in x r d_out x d_in product, and [C + Lam (x) I]_+ = V_a W_a V_a^H
    itself, an n x r x n product, is formed once, for the result. Each step
    solves the generalized Jacobian system by matrix-free conjugate gradients
    and is damped by an Armijo line search on the dual. Only the positive
    eigenvalues carry weight in that Jacobian too, so each product costs two
    r x n x n matrix products and no Kronecker product; see
    ``_tp_jacobian``. On 3-qubit
    Toffoli data at 11000 shots, r stays within 5-7 over the steps
    noise-free and within 29-33 under calibration noise. A projection then
    takes 6 ``eigh`` calls noise-free and 5 under noise (30 seeded tables
    each): the water-filling moves save two and one. Those calls are most
    of its cost. On one BLAS thread of a 2-CPU VM a warm projection took
    6.1 ms noise-free and 5.5 ms under noise: the 64 x 64 complex ``eigh``
    calls 3.8 and 3.3 ms (~0.65 ms each), all Jacobian products ~1.1 ms
    (~35 products noise-free, ~15 under noise), the conjugate-gradient loop
    around them 0.40 and 0.21 ms, forming C + Lam (x) I for each ``eigh``
    ~0.19 ms in all (``_dual``), and the rest ~0.64 ms. That rest works on
    d_in x d_in matrices and length-n spectra.
    Conjugate gradients stop at the usual forcing term min(0.1, |g|) |g| of
    the gradient's Frobenius norm |g|, but not below 0.1 * ``CPTP_TP_TOL``:
    a last step asking for less than the products' round-off would only run
    to the iteration cap.

    The result is PSD to round-off and trace preserving to ``CPTP_TP_TOL``
    (max-abs entry of the residual). A ``CcxlabError`` (exit 4) names the
    residual if ``CPTP_MAX_NEWTON_STEPS`` steps do not reach it. A ``choi``
    that is not square, whose side d_in does not divide, or with a
    non-finite entry raises ``CcxlabError`` too, naming the fault.

    A (R, n, n) stack of Choi estimates gives the stack of their projections,
    each exactly its single call's: at d_in = 1 the whole stack takes one
    batched ``eigh``, which keeps one decomposition and product per matrix,
    and at d_in > 1 each matrix takes its own Newton iteration.
    """
    choi = np.asarray(choi)
    d_in, d_out = _choi_dims(choi, d_in)
    if d_in == 1:
        w, v = np.linalg.eigh((choi + dagger(choi)) / 2)
        w = w + _water_level(w, 1.0)
        x = (v * np.clip(w, 0.0, None)[..., None, :]) @ dagger(v)
        return (x + dagger(x)) / 2
    n = d_in * d_out
    return np.stack([_nearest_channel(c, d_in, d_out)
                     for c in choi.reshape(-1, n, n)]).reshape(choi.shape)


def _nearest_channel(choi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """``project_to_cptp`` of one n x n Choi matrix at d_in > 1: the Newton iteration."""
    n = d_in * d_out
    c = (choi + dagger(choi)) * (d_in / 2)  # Hermitian part of X
    eye = np.eye(d_in)
    lam = (eye - _partial_trace_out(c, d_in, d_out)) / d_out  # makes C + Lam (x) I TP
    w, v, _ = _dual(c, lam)
    for steps in range(CPTP_MAX_NEWTON_STEPS + 1):
        # the dual's exact minimum along Lam + mu I, where [.]_+ has the trace d_in that TP
        # asks for; a scalar shift keeps the eigenvectors, so it costs no eigh
        level = _water_level(w, d_in)
        lam, w = lam + level * eye, w + level
        dual = _dual_objective(w, lam)
        weights = _jacobian_weights(w)
        # [C + Lam (x) I]_+ is V_a W_a V_a^H over the r positive eigenpairs, and its partial
        # trace sums over the output index of V_a's rows: one d_in x r d_out x d_in product
        low = n - len(weights)
        va, vw = v[:, low:], v[:, low:] * w[low:]
        grad = vw.reshape(d_in, -1) @ dagger(va.reshape(d_in, -1)) - eye
        residual = float(abs(grad).max())
        if residual <= CPTP_TP_TOL:
            x = vw @ dagger(va)
            return (x + dagger(x)) / (2 * d_in)
        if steps == CPTP_MAX_NEWTON_STEPS:
            break
        norm = math.sqrt(np.vdot(grad, grad).real)
        # keeps the system positive definite where the Jacobian is singular;
        # it shrinks with the residual, so convergence stays quadratic
        reg = 1e-3 * min(1.0, norm)
        jacobian = _tp_jacobian(v, weights)
        step = _conjugate_gradient(
            lambda h: jacobian(h) + reg * h,
            -grad, max(min(0.1, norm) * norm, 0.1 * CPTP_TP_TOL), 2 * n)
        slope = np.vdot(grad, step).real
        # the dual's round-off, which the Armijo test must not demand to beat
        noise = n * np.finfo(float).eps * (w @ w)
        t = 1.0
        for _ in range(40):
            lam_t = lam + t * step
            w_t, v_t, dual_t = _dual(c, lam_t)
            if dual_t <= dual + 1e-4 * t * slope + noise:
                break
            t /= 2
        lam, w, v = lam_t, w_t, v_t
    raise CcxlabError(
        f"CPTP projection stopped after {CPTP_MAX_NEWTON_STEPS} Newton steps "
        f"with TP residual {residual:.3e} (tolerance {CPTP_TP_TOL:g})")


def qpt_reconstruct(frequencies: np.ndarray, k: int) -> np.ndarray:
    """CPTP Choi estimate from probe frequencies (linear inversion + projection).

    ``frequencies`` has shape (4^k, 3^k, 2^k): probe i in
    ``itertools.product(PROBE_LABELS, repeat=k)`` order, setting j in
    ``qst_settings(k)`` order, basis outcome b (bit q = qubit q).

    A stack of R such arrays, shape (R, 4^k, 3^k, 2^k), gives R Choi matrices,
    entry r exactly the single call's on ``frequencies[r]``.
    """
    if not 1 <= k <= 3:
        raise UsageError(f"k={k} outside 1..3")
    return _reconstruct(_checked(frequencies, (4 ** k, 3 ** k, 2 ** k)), k, _probe_dual(k))


def _reconstruct(frequencies: np.ndarray, k: int, dual: np.ndarray) -> np.ndarray:
    """The projected Choi estimate from the frequencies of P preparations and their ``dual``.

    ``frequencies`` has shape (..., P, 3^k, 2^k), any leading axes a stack of
    estimates, and ``dual`` is ``_probe_dual`` of the m input qubits, P = 4^m:
    m = 0 for a state.
    """
    d_in, d_out = math.isqrt(dual.shape[1]), 2 ** k
    n = d_in * d_out
    lead = frequencies.shape[:-3]
    # unprojected per-preparation output estimates (see module docstring), one per row;
    # a stack takes one product per entry, so entry r is exactly its single call's
    outputs = (frequencies.reshape(lead + (len(dual), -1)) @ _real_estimator(k)).view(complex)
    # row-major vec convention: superop^T[(m, n), (p, q)] = E(|m><n|)[p, q] -> Choi block (m, n)
    superop_t = dual.T @ outputs
    xi = superop_t.reshape(-1, d_in, d_in, d_out, d_out).transpose(0, 1, 3, 2, 4) \
        .reshape(lead + (n, n)) / d_in
    return project_to_cptp(xi, d_in)


# -- fidelity metrics ------------------------------------------------------------

def average_gate_fidelity(f_pro: float, k: int) -> float:
    """(Gamma * F_pro + 1) / (Gamma + 1) with Gamma = 2^k."""
    if not 0.0 <= f_pro <= 1.0:
        raise UsageError(f"process fidelity {f_pro} outside [0, 1]")
    gamma = 2 ** k
    return (gamma * f_pro + 1.0) / (gamma + 1.0)
