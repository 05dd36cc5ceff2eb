"""Dense complex linear algebra for small multi-qubit systems.

Everything is an ordinary ``numpy`` array of complex128. Dimensions stay at
or below 2**6. Every target the package scores against is pure, so
``state_fidelity`` takes the target as a ket and computes the exact
<psi|rho|psi>, with no matrix square root, for one state or a stack of them;
its one batched ``eigvalsh`` only validates ``rho``.

Conventions
-----------
* Qubit 0 is the least-significant bit of a basis index (little-endian).
* ``kron_le(ops)`` takes one single-qubit operator per qubit, qubit 0 first,
  and returns the full operator under that convention.

Tolerances: 1e-10 at construction time, 1e-6 for input validation.
"""

from __future__ import annotations

from typing import Sequence, Union

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


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> Union[float, np.ndarray]:
    """Fidelity <psi|rho|psi> of a density matrix ``rho`` with a pure target ket ``psi``.

    ``rho`` is one (d, d) state, which gives a float, or an (R, d, d) stack,
    which gives the (R,) array of each state's fidelity: exactly what a call
    on that state alone gives, so a single state scores as a stack of one.
    Exact, with one batched ``eigvalsh`` for the checks. ``psi`` must be 1-D
    and match ``rho``'s dimension (else ``DimensionMismatchError``), finite
    (else ``NotHermitianError``, as for ``rho``) and of unit norm (else
    ``NotPSDError``: |psi|^2 is the nonzero eigenvalue of its projector).
    Every state must be finite, Hermitian and PSD within ``VALIDATION_TOL``.
    """
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or rho.ndim not in (2, 3) or rho.shape[-2:] != psi.shape * 2:
        raise DimensionMismatchError(f"state_fidelity needs a (d, d) rho or an (R, d, d) stack "
                                     f"and a (d,) target ket, got {rho.shape} and {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise NotHermitianError("state_fidelity requires a finite target ket")
    norm = np.vdot(psi, psi).real
    if abs(norm - 1.0) > VALIDATION_TOL:
        raise NotPSDError(f"state_fidelity requires a unit target ket; |psi|^2 = {norm:.6g}")
    if not np.max(np.abs(rho - dagger(rho)), initial=0.0) <= VALIDATION_TOL:  # NaN fails too
        raise NotHermitianError("state_fidelity requires a finite Hermitian input")
    w_min = np.min(np.linalg.eigvalsh((rho + dagger(rho)) / 2)[..., 0], initial=np.inf)
    if w_min < -VALIDATION_TOL:
        raise NotPSDError(f"state_fidelity requires PSD input; min eigenvalue {w_min:.3e}")
    # one vdot per state: each state gets the bits of a call on it alone
    kets = (rho @ psi).reshape(-1, psi.size)
    fidelities = np.clip([np.vdot(psi, ket).real for ket in kets], 0.0, 1.0)
    return fidelities if rho.ndim == 3 else float(fidelities[0])
