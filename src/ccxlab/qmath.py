"""Dense complex linear algebra for small multi-qubit systems.

Everything is an ordinary ``numpy`` array of complex128. Dimensions stay at
or below 2**6, so spectral decomposition (``numpy.linalg.eigh``) is the only
matrix-function mechanism used; there are no iterative solvers.

Conventions
-----------
* Qubit 0 is the least-significant bit of a basis index (little-endian).
* ``kron_le(ops)`` takes one single-qubit operator per qubit, qubit 0 first,
  and returns the full operator under that convention.

Tolerances: 1e-10 at construction time, 1e-6 for input validation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitaryError,
)

CONSTRUCTION_TOL = 1e-10
VALIDATION_TOL = 1e-6

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def kron_le(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of per-qubit operators, ``ops[0]`` acting on qubit 0.

    Little-endian: the qubit-0 factor is the Kronecker minor (fastest) index.
    """
    out = np.eye(1, dtype=complex)
    for op in reversed(list(ops)):
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def pauli_string_matrix(letters: str) -> np.ndarray:
    """Matrix of a Pauli string over {I, X, Y, Z}; letters[j] acts on qubit j."""
    return kron_le([PAULI_1Q[c] for c in letters])


def check_unitary(u: np.ndarray, tol: float = CONSTRUCTION_TOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"expected a square matrix, got shape {u.shape}")
    dev = np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0])))
    if dev > tol:
        raise NotUnitaryError(f"U^dag U deviates from identity by {dev:.3e} (tol {tol:g})")
    return u


def _psd_eigh(h: np.ndarray, name: str, validate_tol: float, vectors: bool = True) -> tuple:
    """Ascending eigenpairs of a Hermitian PSD matrix, negatives within tolerance clipped.

    Without ``vectors`` the eigenvectors are None and only ``eigvalsh`` runs.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if not np.max(np.abs(h - dagger(h))) <= validate_tol:  # NaN fails too
        raise NotHermitianError(f"{name} requires a finite Hermitian input")
    h = (h + dagger(h)) / 2
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    if w[0] < -validate_tol:
        raise NotPSDError(f"{name} requires PSD input; min eigenvalue {w[0]:.3e}")
    return np.clip(w, 0.0, None), v


def matrix_sqrt_psd(h: np.ndarray, *, validate_tol: float = VALIDATION_TOL) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below zero (within ``validate_tol``) are clipped to zero.
    """
    w, v = _psd_eigh(h, "matrix_sqrt_psd", validate_tol)
    return (v * np.sqrt(w)) @ dagger(v)


#: relative spectral weight treated as round-off by ``state_fidelity``
RANK_TOL = 1e-12


def state_fidelity(rho: np.ndarray, lam: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) lam sqrt(rho)))**2 between density matrices.

    A 1-D ``lam`` is a target ket |psi>, and the fidelity is <psi|rho|psi>:
    exact, with one ``eigvalsh`` for ``rho``'s checks. A ket must be finite
    (else ``NotHermitianError``, as for a matrix) and of unit norm (else
    ``NotPSDError``: |psi|^2 is the nonzero eigenvalue of its projector).

    Exact for rank-one arguments. If either matrix is lam_max |psi><psi| up to
    round-off (its eigenvalues after the largest sum to at most ``RANK_TOL``
    of the largest), the fidelity is lam_max <psi|other|psi>, computed without
    square roots. Otherwise the general formula is used with eigenvalues of
    the inner matrix below ``RANK_TOL`` times its largest set to zero: the
    square root would turn each round-off eigenvalue of ~1e-17 into ~3e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    if rho.shape != (lam.shape * 2 if lam.ndim == 1 else lam.shape):
        raise DimensionMismatchError(f"dimension mismatch: {rho.shape} vs {lam.shape}")
    if lam.ndim == 1:
        if not np.all(np.isfinite(lam)):
            raise NotHermitianError("state_fidelity requires a finite target ket")
        norm = np.vdot(lam, lam).real
        if abs(norm - 1.0) > VALIDATION_TOL:
            raise NotPSDError(f"state_fidelity requires a unit target ket; |psi|^2 = {norm:.6g}")
        _psd_eigh(rho, "state_fidelity", VALIDATION_TOL, vectors=False)
        return min(max(float(np.vdot(lam, rho @ lam).real), 0.0), 1.0)
    w_rho, v_rho = _psd_eigh(rho, "state_fidelity", VALIDATION_TOL)
    w_lam, v_lam = _psd_eigh(lam, "state_fidelity", VALIDATION_TOL)
    for w, v, other in ((w_rho, v_rho, lam), (w_lam, v_lam, rho)):
        if np.sum(w[:-1]) <= RANK_TOL * w[-1]:
            psi = v[:, -1]
            f = float(w[-1] * np.real(psi.conj() @ other @ psi))
            break
    else:
        s = (v_rho * np.sqrt(w_rho)) @ dagger(v_rho)
        inner = s @ lam @ s
        wi = np.linalg.eigvalsh((inner + dagger(inner)) / 2)
        wi[wi < RANK_TOL * wi[-1]] = 0.0
        f = float(np.sum(np.sqrt(wi)) ** 2)
    return min(max(f, 0.0), 1.0)
