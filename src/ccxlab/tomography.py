"""State and process tomography: experiment generation and reconstruction.

State tomography measures all 3^k Pauli-basis settings. Its data is a
(3^k, 2^k) array of outcome frequencies: row j is setting j in
``qst_settings`` order, column b is basis outcome b, whose bit q is the
outcome of qubit q. Linear inversion is one fixed linear map,
``_estimator(k)``: it takes those rows, stacked, to vec(rho) of
rho = (1/2^k) sum_P <P> P, where <P> is the parity of P's support averaged
over every setting that covers it (Greenbaum, arXiv:1509.02921).

Process tomography prepares the 4^k products of {|0>, |1>, |+>, |+i>} and
measures 3^k settings per preparation (12^k circuits). Its data is a
(4^k, 3^k, 2^k) array, one state-tomography array per probe, probes in
``itertools.product(PROBE_LABELS, repeat=k)`` order. So the same map gives
every *unprojected* output estimate in one product; the constant inverse of
the probe-state matrix, ``_probe_dual(k)``, turns them into the channel's
superoperator, which is regrouped into the Choi operator and replaced by the
Frobenius-nearest completely-positive trace-preserving (CPTP) Choi
operator.

State tomography is the case of zero input qubits: one preparation, whose
dual ``_probe_dual(0)`` is [[1]], and a Choi matrix of input dimension 1,
which is a state. So both estimators are one function, ``_reconstruct``:
linear inversion, the dual, the regroup and one projection to the nearest
CPTP Choi matrix, which at d_in = 1 is the nearest density matrix. Linear
inversion followed by one such projection is the estimator Surawy-Stepney,
Kahn, Kueng & Guta analyse (arXiv:2107.01060).

At d_in = 1 the projection is closed-form water-filling, so
``qst_reconstruct`` also takes a stack of tables, one per repeat, and
estimates them all with one stacked product and one batched ``eigh``,
each exactly as its single call would. ``qpt_reconstruct`` takes one table:
the CPTP projection iterates per Choi matrix.

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
from .errors import (
    DimensionMismatchError,
    InvalidPauliStringError,
    KOutOfRangeError,
    NotHermitianError,
    ProjectionNotConvergedError,
)
from .gates import h, sdg
from .qmath import (
    check_unitary,
    dagger,
    pauli_string_matrix,
)
from .states import PROBE_LABELS, probe_state
from .synthesis import to_native


#: per Pauli letter, the logical gates (in application order, as constructors
#: of one wire) that rotate its eigenbasis onto Z before a Z measurement
MEASUREMENT_BASES = {"X": (h,), "Y": (sdg, h), "Z": ()}


def qst_settings(k: int) -> List[str]:
    """All 3^k measurement settings in lexicographic order (X < Y < Z)."""
    if not 1 <= k <= 4:
        raise KOutOfRangeError(f"k={k} outside 1..4")
    return ["".join(p) for p in itertools.product("XYZ", repeat=k)]


@functools.lru_cache(maxsize=None)
def measurement_rotation(setting: str) -> Circuit:
    """Native circuit rotating each qubit so a Z measurement reads the setting.

    Built once per setting and process: a circuit is immutable, and lowering
    it costs far more than reading every setting's distribution off a map.
    """
    k = len(setting)
    if k == 0 or any(ch not in "XYZ" for ch in setting):
        raise InvalidPauliStringError(f"setting {setting!r} must be letters over X/Y/Z")
    return to_native(Circuit(k, tuple(gate(q) for q, letter in enumerate(setting)
                                      for gate in MEASUREMENT_BASES[letter])))


def _checked(frequencies: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.shape != shape:
        raise DimensionMismatchError(
            f"frequencies must have shape {shape}, got {frequencies.shape}")
    return frequencies


@functools.lru_cache(maxsize=None)
def _estimator(k: int) -> np.ndarray:
    """Linear inversion as a (4^k, 3^k * 2^k) map from stacked frequencies to vec(rho).

    Row-major vec. Row block P of the Pauli-expectation map holds the parity
    signs of P's support on every setting that covers P, divided by their
    number; vec(P) / 2^k then assembles the state.
    """
    settings = qst_settings(k)
    outcomes = np.arange(2 ** k)
    paulis = ["".join(p) for p in itertools.product("IXYZ", repeat=k)]
    expectation = np.zeros((len(paulis), len(settings), 2 ** k))
    for i, pstr in enumerate(paulis):
        support = [q for q in range(k) if pstr[q] != "I"]
        parity = sum((outcomes >> q) & 1 for q in support) % 2
        covers = [all(s[q] == pstr[q] for q in support) for s in settings]
        expectation[i, covers] = (1 - 2 * parity) / sum(covers)
    vec_paulis = np.stack([pauli_string_matrix(p).reshape(-1) for p in paulis], axis=1)
    estimator = vec_paulis @ expectation.reshape(len(paulis), -1) / 2 ** k
    estimator.setflags(write=False)
    return estimator


def qst_reconstruct(frequencies: np.ndarray, k: int) -> np.ndarray:
    """Density matrix from Pauli-setting frequencies (linear inversion + projection).

    ``frequencies`` has shape (3^k, 2^k): row j holds the outcome frequencies
    of ``qst_settings(k)[j]``, indexed by basis outcome (bit q = qubit q).
    The linear-inversion estimate is replaced by the Frobenius-nearest
    density matrix: ``project_to_cptp``'s result at input dimension 1.

    A stack of R such arrays, shape (R, 3^k, 2^k), gives R density matrices,
    entry r exactly the single call's on ``frequencies[r]``.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    stack = frequencies.shape[:1] if frequencies.ndim == 3 else ()
    frequencies = _checked(frequencies, stack + (3 ** k, 2 ** k))
    return _reconstruct(frequencies[..., None, :, :], k, _probe_dual(0))


# -- process tomography ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _probe_dual(k: int) -> np.ndarray:
    """Inverse of the matrix whose columns are the vectorized probe states; [[1]] at k = 0."""
    kets = [probe_state(p) for p in itertools.product(PROBE_LABELS, repeat=k)]
    dual = np.linalg.inv(np.stack([np.outer(v, v.conj()).reshape(-1) for v in kets], axis=1))
    dual.setflags(write=False)
    return dual


def choi_ket_of_unitary(u: np.ndarray) -> np.ndarray:
    """Unit ket (I (x) U)|Omega> / sqrt(dim), Omega = sum_i |ii>, input index major.

    Its projector is the normalized Choi matrix of the unitary channel, the
    target of process tomography; ``state_fidelity`` scores a Choi estimate
    against the ket directly.
    """
    u = check_unitary(np.asarray(u, dtype=complex), tol=1e-10)
    # block i of the ket is column i of U
    return u.T.reshape(-1) / math.sqrt(u.shape[0])


def _partial_trace_out(xi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.einsum("mpnp->mn", xi.reshape(d_in, d_out, d_in, d_out))


def _choi_dims(choi: np.ndarray, d_in: int) -> Tuple[int, int]:
    """(d_in, d_out) of a Choi matrix of side d_in * d_out; rejects other shapes and NaN/inf."""
    shape = choi.shape
    if choi.ndim != 2 or shape[0] != shape[1] or shape[0] == 0 or d_in < 1 or shape[0] % d_in:
        raise DimensionMismatchError(
            f"a Choi matrix must be (d_in * d_out) x (d_in * d_out) with d_in = {d_in}, "
            f"got shape {shape}")
    if not np.all(np.isfinite(choi)):
        raise NotHermitianError("a Choi matrix must have finite entries")
    return d_in, shape[0] // d_in


def tp_deviation(choi: np.ndarray, d_in: int) -> float:
    """Max-abs deviation of Tr_out(choi * d_in) from the d_in x d_in identity."""
    choi = np.asarray(choi)
    d_in, d_out = _choi_dims(choi, d_in)
    return float(np.max(np.abs(_partial_trace_out(choi * d_in, d_in, d_out) - np.eye(d_in))))


#: max-abs TP residual at which ``project_to_cptp`` stops; its round-off
#: floor is ~1e-13 for a 3-qubit Choi matrix
CPTP_TP_TOL = 1e-11
#: Newton steps before ``project_to_cptp`` gives up (5-10 are typical)
CPTP_MAX_NEWTON_STEPS = 50


def _dual(c: np.ndarray, lam: np.ndarray) -> tuple:
    """Spectrum of C + Lam (x) I and the dual objective 1/2 ||[.]_+||^2 - Tr Lam."""
    d_in = lam.shape[0]
    d_out = c.shape[0] // d_in
    shifted = c.copy()
    diagonal = np.arange(d_out)
    # Lam (x) I adds Lam[m, n] to entry ((m, p), (n, p)) for every output index p
    shifted.reshape(d_in, d_out, d_in, d_out)[:, diagonal, :, diagonal] += lam
    w, v = np.linalg.eigh(shifted)
    return w, v, 0.5 * np.sum(np.clip(w, 0.0, None) ** 2) - np.trace(lam).real


def _jacobian_weights(w: np.ndarray) -> np.ndarray:
    """The rows of the positive eigenvalues in Qi & Sun's divided-difference matrix.

    ``w`` is ascending, as ``eigh`` returns it, so its r positive entries
    are the last r. Row i holds w_i / (w_i - w_j) against each non-positive
    w_j and 1/2 against each positive one: half the full matrix's weight 1,
    because ``_tp_jacobian`` adds the Hermitian conjugate of that block.
    Rows of non-positive eigenvalues carry weight only against positive
    ones, so the conjugate covers them too. Shape (r, len(w)).
    """
    low = len(w) - np.count_nonzero(w > 0)
    positive = w[low:, None]
    weights = np.full((len(w) - low, len(w)), 0.5)
    weights[:, :low] = positive / (positive - w[None, :low])
    return weights


def _tp_jacobian(v: np.ndarray, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Generalized Jacobian of Lam -> Tr_out [C + Lam (x) I]_+, as the map that applies it to h.

    That is Tr_out V (Omega o V^H (h (x) I) V) V^H for the divided
    differences Omega, computed as Tr_out P + (Tr_out P)^H with P = V_a B and
    B = (Omega_a o V_a^H (h (x) I) V) V^H: V_a is the last r columns of V and
    Omega_a the r rows ``_jacobian_weights`` gives. B takes two r x n x n
    products, where the dense form costs four n x n x n ones, and Tr_out P
    needs only a d_in x r d_out x d_in one; r = 0 gives 0. V_a, V_a^H and
    V^H are formed once per map, not once per product.
    """
    n = v.shape[0]
    r = weights.shape[0]
    va = v[:, n - r:]
    va_h, v_h = dagger(va), dagger(v)

    def apply(h: np.ndarray) -> np.ndarray:
        d_in = h.shape[0]
        d_out = n // d_in
        hv = (h @ v.reshape(d_in, -1)).reshape(n, n)  # (h (x) I) V
        b = (weights * (va_h @ hv)) @ v_h
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
    (2012)): with C's eigenvalues w_1 >= w_2 >= ..., Lam is the least of
    (1 - w_1 - ... - w_r) / r over r, reached at the number of eigenvalues
    that stay positive. One ``eigh`` suffices; see ``_nearest_states``.

    At d_in > 1 Lam is found by the semismooth Newton method of Qi & Sun
    (SIAM J. Matrix Anal. Appl. 28, 360 (2006)) with a partial trace in
    place of their diagonal. Each step solves the generalized Jacobian
    system by matrix-free conjugate gradients and is damped by an Armijo
    line search on the dual. Only the r positive eigenvalues of
    C + Lam (x) I carry weight in that Jacobian, so each product costs two
    r x n x n matrix products and no Kronecker product; see
    ``_tp_jacobian``. On 3-qubit Toffoli data r falls from ~33 to 6-8 over
    the steps noise-free, and stays near 33 under calibration noise.
    Conjugate gradients stop at the usual forcing term min(0.1, |g|) |g| of
    the gradient's Frobenius norm |g|, but not below 0.1 * ``CPTP_TP_TOL``:
    a last step asking for less than the products' round-off would only run
    to the iteration cap.

    The result is PSD to round-off and trace preserving to ``CPTP_TP_TOL``
    (max-abs entry of the residual). ``ProjectionNotConvergedError`` names
    the residual if ``CPTP_MAX_NEWTON_STEPS`` steps do not reach it. A
    ``choi`` that is not square, or whose side d_in does not divide, raises
    ``DimensionMismatchError``, and one with a non-finite entry
    ``NotHermitianError``.
    """
    choi = np.asarray(choi)
    d_in, d_out = _choi_dims(choi, d_in)
    if d_in == 1:
        return _nearest_states(choi)
    n = d_in * d_out
    c = (choi + dagger(choi)) * (d_in / 2)  # Hermitian part of X
    eye = np.eye(d_in)
    lam = (eye - _partial_trace_out(c, d_in, d_out)) / d_out  # makes C + Lam (x) I TP
    w, v, dual = _dual(c, lam)
    for steps in range(CPTP_MAX_NEWTON_STEPS + 1):
        weights = _jacobian_weights(w)
        low = n - len(weights)  # x is built from the positive eigenpairs only
        x = (v[:, low:] * w[low:]) @ dagger(v[:, low:])
        grad = _partial_trace_out(x, d_in, d_out) - eye
        residual = float(np.max(np.abs(grad)))
        if residual <= CPTP_TP_TOL:
            return (x + dagger(x)) / (2 * d_in)
        if steps == CPTP_MAX_NEWTON_STEPS:
            break
        norm = np.linalg.norm(grad)
        # keeps the system positive definite where the Jacobian is singular;
        # it shrinks with the residual, so convergence stays quadratic
        reg = 1e-3 * min(1.0, norm)
        jacobian = _tp_jacobian(v, weights)
        step = _conjugate_gradient(
            lambda h: jacobian(h) + reg * h,
            -grad, max(min(0.1, norm) * norm, 0.1 * CPTP_TP_TOL), 2 * n)
        slope = np.vdot(grad, step).real
        # the dual's round-off, which the Armijo test must not demand to beat
        noise = n * np.finfo(float).eps * np.sum(w ** 2)
        t = 1.0
        for _ in range(40):
            lam_t = lam + t * step
            w_t, v_t, dual_t = _dual(c, lam_t)
            if dual_t <= dual + 1e-4 * t * slope + noise:
                break
            t /= 2
        lam, w, v, dual = lam_t, w_t, v_t, dual_t
    raise ProjectionNotConvergedError(
        f"CPTP projection stopped after {CPTP_MAX_NEWTON_STEPS} Newton steps "
        f"with TP residual {residual:.3e} (tolerance {CPTP_TP_TOL:g})")


def qpt_reconstruct(frequencies: np.ndarray, k: int) -> np.ndarray:
    """CPTP Choi estimate from probe frequencies (linear inversion + projection).

    ``frequencies`` has shape (4^k, 3^k, 2^k): probe i in
    ``itertools.product(PROBE_LABELS, repeat=k)`` order, setting j in
    ``qst_settings(k)`` order, basis outcome b (bit q = qubit q).
    """
    if not 1 <= k <= 3:
        raise KOutOfRangeError(f"k={k} outside 1..3")
    return _reconstruct(_checked(frequencies, (4 ** k, 3 ** k, 2 ** k)), k, _probe_dual(k))


def _nearest_states(rho: np.ndarray) -> np.ndarray:
    """``project_to_cptp`` at d_in = 1 for each matrix of a (..., n, n) stack at once.

    Each matrix takes its own ``eigh`` and products, so its result does not
    depend on the stack it is in.
    """
    if not np.all(np.isfinite(rho)):
        raise NotHermitianError("a state estimate must have finite entries")
    w, v = np.linalg.eigh((rho + dagger(rho)) / 2)
    # (1 - w_1 - ... - w_r) / r over the r largest eigenvalues; the least is the level
    tails = np.cumsum(w[..., ::-1], axis=-1)
    w = w + np.min((1.0 - tails) / np.arange(1, w.shape[-1] + 1), axis=-1, keepdims=True)
    x = (v * np.clip(w, 0.0, None)[..., None, :]) @ dagger(v)
    return (x + dagger(x)) / 2


def _reconstruct(frequencies: np.ndarray, k: int, dual: np.ndarray) -> np.ndarray:
    """The projected Choi estimate from the frequencies of P preparations and their ``dual``.

    ``frequencies`` has shape (..., P, 3^k, 2^k), any leading axes a stack of
    states, and ``dual`` is ``_probe_dual`` of the m input qubits, P = 4^m:
    m = 0 for a state.
    """
    d_in, d_out = math.isqrt(dual.shape[1]), 2 ** k
    n = d_in * d_out
    lead = frequencies.shape[:-3]
    # unprojected per-preparation output estimates (see module docstring), one per column;
    # a stack takes one product per entry, so entry r is exactly its single call's
    outputs = _estimator(k) @ np.swapaxes(frequencies.reshape(lead + (len(dual), -1)), -1, -2)
    superop = outputs @ dual  # row-major vec convention
    # superop[(p, q), (m, n)] = E(|m><n|)[p, q] -> Choi block (m, n)
    xi = superop.reshape(-1, d_out, d_out, d_in, d_in).transpose(0, 3, 1, 4, 2) \
        .reshape(lead + (n, n)) / d_in
    return project_to_cptp(xi, d_in) if d_in > 1 else _nearest_states(xi)


# -- fidelity metrics ------------------------------------------------------------

def average_gate_fidelity(f_pro: float, k: int) -> float:
    """(Gamma * F_pro + 1) / (Gamma + 1) with Gamma = 2^k."""
    if not 0.0 <= f_pro <= 1.0:
        raise ValueError(f"process fidelity {f_pro} outside [0, 1]")
    gamma = 2 ** k
    return (gamma * f_pro + 1.0) / (gamma + 1.0)
