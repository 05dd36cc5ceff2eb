"""Dense complex linear algebra for small multi-qubit systems.

Everything is an ordinary ``numpy`` array of complex128. Dimensions stay at
or below 2**6. Every target the package scores against is pure, so
``state_fidelity`` takes the target as a ket and computes the exact
<psi|rho|psi>, with no matrix square root, for one state or a stack of them.
It checks that ``rho`` is PSD with one batched Cholesky factorization, and
takes eigenvalues only of a stack that fails it.

Conventions
-----------
* Qubit 0 is the least-significant bit of a basis index (little-endian).

Tolerances: 1e-10 at construction time, 1e-6 for input validation.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import CcxlabError

CONSTRUCTION_TOL = 1e-10
VALIDATION_TOL = 1e-6

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def check_unitary(u: np.ndarray, tol: float = CONSTRUCTION_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise CcxlabError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))
    if dev > tol:
        raise CcxlabError(f"U^dag U deviates from identity by {dev:.3e} (tol {tol:g})")
    return u


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> Union[float, np.ndarray]:
    """Fidelity <psi|rho|psi> of a density matrix ``rho`` with a pure target ket ``psi``.

    ``rho`` is one (d, d) state, which gives a float, or an (R, d, d) stack,
    which gives the (R,) array of each state's fidelity: exactly what a call
    on that state alone gives, so a single state scores as a stack of one.
    Exact. ``psi`` must be 1-D, match ``rho``'s dimension, be finite and be
    of unit norm. Every state must be finite, Hermitian and PSD within
    ``VALIDATION_TOL``. Each violation raises ``CcxlabError`` (exit 4), and
    its message names the failed check.

    The PSD check is one batched Cholesky factorization of the Hermitian
    parts plus ``VALIDATION_TOL`` * I, which succeeds when no eigenvalue is
    below -``VALIDATION_TOL``. Only if it fails does one batched ``eigvalsh``
    of the same Hermitian parts, computed once, decide: the error names
    the least eigenvalue if that is below -``VALIDATION_TOL``, and the state
    passes otherwise. So every state is accepted or rejected as ``eigvalsh``
    alone would, up to round-off at the boundary, for a fraction of its cost.
    """
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or rho.ndim not in (2, 3) or rho.shape[-2:] != psi.shape * 2:
        raise CcxlabError(f"state_fidelity needs a (d, d) rho or an (R, d, d) stack "
                          f"and a (d,) target ket, got {rho.shape} and {psi.shape}")
    norm = np.vdot(psi, psi).real
    if not abs(norm - 1.0) <= VALIDATION_TOL:  # a non-finite ket fails too
        if not np.all(np.isfinite(psi)):
            raise CcxlabError("state_fidelity requires a finite target ket")
        raise CcxlabError(f"state_fidelity requires a unit target ket; |psi|^2 = {norm:.6g}")
    rho_h = dagger(rho)
    if not abs(rho - rho_h).max(initial=0.0) <= VALIDATION_TOL:  # NaN fails too
        raise CcxlabError("state_fidelity requires a finite Hermitian input")
    # the Hermitian part, once (* 0.5 is / 2 exactly), then a copy plus VALIDATION_TOL * I;
    # where that does not factor, eigvalsh decides
    herm = rho + rho_h
    herm *= 0.5
    shifted = herm.copy()
    shifted.reshape(-1, psi.size ** 2)[:, ::psi.size + 1] += VALIDATION_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        w_min = np.linalg.eigvalsh(herm)[..., 0].min()
        if w_min < -VALIDATION_TOL:
            raise CcxlabError(f"state_fidelity requires PSD input; min eigenvalue {w_min:.3e}") \
                from None
    # one inner product per state, which matmul takes state by state: each state gets the
    # bits of a call on it alone
    kets = (rho @ psi).reshape(-1, 1, psi.size)
    fidelities = np.clip((kets @ psi.conj()).real[:, 0], 0.0, 1.0)
    return fidelities if rho.ndim == 3 else float(fidelities[0])
