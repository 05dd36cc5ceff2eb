"""Channel representations the tests check the package against.

Nothing in ``ccxlab`` uses these. They are independent oracles: the Choi
matrix of an operator-sum channel built block by block, a channel's action
read off its Choi matrix or its Kraus operators, and the Pauli transfer
matrix with the process fidelity computed from it, a second path to the
fidelity that ``ccxlab.qmath.state_fidelity`` computes between a normalized
Choi matrix and the Choi ket of a unitary. Choi matrices are normalized, block (m, n) holding E(|m><n|) / d.
"""

import itertools
from typing import Iterable, List

import numpy as np

from ccxlab.errors import CcxlabError
from ccxlab.qmath import check_unitary, dagger

from product_oracle import pauli_string_matrix


def apply_channel(channel, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action of a ``kraus_oracle.KrausChannel``."""
    return sum(k @ rho @ dagger(k) for k in channel.operators)


def choi_apply(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action from the normalized Choi matrix."""
    d = rho.shape[0]
    blocks = (choi * d).reshape(d, d, d, d)  # [m, p, n, q] -> E(|m><n|)[p, q]
    return np.einsum("mn,mpnq->pq", rho, blocks)


def kraus_to_choi(operators: Iterable[np.ndarray]) -> np.ndarray:
    """Normalized Choi matrix of an operator-sum channel."""
    ops = [np.asarray(kk, dtype=complex) for kk in operators]
    d = ops[0].shape[0]
    xi = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            unit[:] = 0.0
            unit[m, n] = 1.0
            image = sum(kk @ unit @ dagger(kk) for kk in ops)
            xi[m * d:(m + 1) * d, n * d:(n + 1) * d] = image
    return xi / d


def _normalized_paulis(k: int) -> List[np.ndarray]:
    gamma = 2 ** k
    return [pauli_string_matrix("".join(p)) / np.sqrt(gamma)
            for p in itertools.product("IXYZ", repeat=k)]


def choi_to_superop_pauli(choi: np.ndarray) -> np.ndarray:
    """Transfer matrix in the normalized Pauli basis, S[i,j] = Tr(P_i E(P_j))."""
    d = int(round(np.sqrt(choi.shape[0])))
    k = int(round(np.log2(d)))
    paulis = _normalized_paulis(k)
    s = np.zeros((d * d, d * d), dtype=complex)
    for j, pj in enumerate(paulis):
        image = choi_apply(choi, pj)
        for i, pi in enumerate(paulis):
            s[i, j] = np.trace(dagger(pi) @ image)
    return s


def unitary_to_superop_pauli(u: np.ndarray) -> np.ndarray:
    u = check_unitary(np.asarray(u, dtype=complex), tol=1e-10)
    d = u.shape[0]
    k = int(round(np.log2(d)))
    paulis = _normalized_paulis(k)
    s = np.zeros((d * d, d * d), dtype=complex)
    for j, pj in enumerate(paulis):
        image = u @ pj @ dagger(u)
        for i, pi in enumerate(paulis):
            s[i, j] = np.trace(dagger(pi) @ image)
    return s


def process_fidelity_superop(channel_superop: np.ndarray, target_unitary: np.ndarray) -> float:
    """Tr(S_target^dag S_channel) / Gamma^2; the superoperator-path cross-check."""
    s_chan = np.asarray(channel_superop, dtype=complex)
    s_tgt = unitary_to_superop_pauli(target_unitary)
    if s_chan.shape != s_tgt.shape:
        raise CcxlabError(f"superoperator shapes differ: {s_chan.shape} vs {s_tgt.shape}")
    gamma_sq = s_chan.shape[0]
    return float(np.real(np.trace(dagger(s_tgt) @ s_chan)) / gamma_sq)


def superop_to_choi(superop: np.ndarray) -> np.ndarray:
    """Normalized Choi matrix of a row-major superoperator.

    Column m * d + n of the superoperator is vec(E(|m><n|)), so block (m, n)
    of the Choi matrix is that column reshaped to d x d, divided by d.
    """
    d = int(round(np.sqrt(superop.shape[0])))
    return superop.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) / d
