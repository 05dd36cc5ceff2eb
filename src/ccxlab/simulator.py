"""State-vector and density-matrix execution of native circuits, plus sampling.

Both backends accept the native gate set {ECR, ID, RZ, SX, X} only; compile
everything else first (``circuit_unitary`` in :mod:`ccxlab.circuits` handles
arbitrary catalog gates for oracle math). Measurement sampling is seeded and
deterministic: identical (state, setting, shots, seed, readout) always gives
the identical counts.

Bitstring convention for counts: the leftmost character is the highest qubit
index (basis index rendered MSB-first), matching little-endian state order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .circuits import Circuit, _apply_local
from .errors import CcxlabError, InvalidPauliStringError, NonNativeGateError
from .gates import MAT_H, MAT_S, NATIVE_GATES, Gate, GateDef, gate_matrix
from .noise import KrausChannel, NoiseModel, depolarizing_channel, thermal_relaxation_channel
from .qmath import I2, dagger

#: exact measurement-basis rotations (Z-diagonalizing frame per letter)
_BASIS_ROT = {
    "Z": I2,
    "X": MAT_H,
    "Y": MAT_H @ dagger(MAT_S),
}


def _check_native(c: Circuit) -> None:
    for g in c.gates:
        if g.name not in NATIVE_GATES:
            raise NonNativeGateError(
                f"gate {g.name.value} is not in the native set; synthesize it first")


def index_to_bitstring(index: int, num_qubits: int) -> str:
    return format(index, f"0{num_qubits}b")


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
    if abs(np.linalg.norm(psi) - 1.0) >= 1e-10:
        raise CcxlabError("state norm drifted")
    return psi


def _apply_unitary_density(rho: np.ndarray, local: np.ndarray, wires, n: int) -> np.ndarray:
    tensor = rho.reshape([2] * (2 * n))
    tensor = _apply_local(tensor, local, wires, n)             # left factor
    tensor = np.moveaxis(tensor, range(n), range(n, 2 * n))    # transpose to act on bras
    tensor = _apply_local(tensor, local.conj(), wires, n)
    tensor = np.moveaxis(tensor, range(n), range(n, 2 * n))
    return tensor.reshape(rho.shape)


def _apply_kraus_density(rho: np.ndarray, channel: KrausChannel, wires, n: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in channel.operators:
        out = out + _apply_unitary_density(rho, k, wires, n)
    return out


def apply_circuit_density(rho: np.ndarray, c: Circuit, nm: Optional[NoiseModel]) -> np.ndarray:
    """Evolve a density matrix through a native circuit under ``nm``.

    Per gate: ideal unitary, then depolarizing noise on the gate's qubits,
    then thermal relaxation on each participating qubit for the gate's
    duration. ``nm=None`` runs noiselessly.
    """
    _check_native(c)
    n = c.num_qubits
    for g in c.gates:
        wires = sorted(g.qubits)
        rho = _apply_unitary_density(rho, gate_matrix(g), wires, n)
        if nm is None or (g.name is Gate.RZ and nm.rz_is_virtual):
            continue
        err = nm.error_for(g.name)
        if err > 0.0:
            channel = depolarizing_channel(err, 2 ** len(wires))
            rho = _apply_kraus_density(rho, channel, wires, n)
        duration = nm.duration_for(g.name)
        if duration > 0.0:
            for q in g.qubits:
                cal = nm.calibration(q)
                channel = thermal_relaxation_channel(duration, cal.t1_us, cal.t2_us)
                rho = _apply_kraus_density(rho, channel, [q], n)
    return rho


def run_density(c: Circuit, nm: Optional[NoiseModel]) -> np.ndarray:
    rho = np.zeros((2 ** c.num_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    rho = apply_circuit_density(rho, c, nm)
    tr = np.trace(rho)
    if abs(tr - 1.0) >= 1e-8:
        raise CcxlabError(f"density trace drifted to {tr}")
    return (rho + dagger(rho)) / 2


def apply_measurement_relaxation(rho: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Thermal relaxation during readout (per-qubit readout_length)."""
    n = int(np.log2(rho.shape[0]))
    for q in range(n):
        cal = nm.calibration(q)
        if cal.readout_length_ns > 0:
            channel = thermal_relaxation_channel(cal.readout_length_ns, cal.t1_us, cal.t2_us)
            rho = _apply_kraus_density(rho, channel, [q], n)
    return rho


# -- measurement ----------------------------------------------------------------

@dataclass(frozen=True)
class CountsMap:
    """Measurement statistics: bitstring -> count, plus the shot total."""

    outcomes: Mapping[str, int]
    shots: int

    def __post_init__(self):
        object.__setattr__(self, "outcomes", dict(self.outcomes))
        if self.shots <= 0:
            raise ValueError("shots must be positive")
        total = sum(self.outcomes.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")
        lengths = {len(b) for b in self.outcomes}
        if len(lengths) > 1:
            raise ValueError("inconsistent bitstring lengths")

    def frequencies(self) -> Dict[str, float]:
        return {b: c / self.shots for b, c in self.outcomes.items()}


def _validate_setting(setting: str, num_qubits: int) -> str:
    if len(setting) != num_qubits or any(ch not in "XYZ" for ch in setting):
        raise InvalidPauliStringError(
            f"setting {setting!r} must be {num_qubits} letters over X/Y/Z")
    return setting


def measurement_probabilities(state: np.ndarray, setting: str,
                              readout: Optional[Sequence[Tuple[float, float]]] = None
                              ) -> np.ndarray:
    """Outcome distribution after rotating into the setting's basis.

    ``state`` is a state vector or density matrix. ``readout`` holds optional
    per-qubit (P(1|0), P(0|1)) pairs applied as confusion matrices to the
    distribution, qubit 0 first.
    """
    state = np.asarray(state, dtype=complex)
    is_density = state.ndim == 2
    dim = state.shape[0]
    n = int(np.log2(dim))
    _validate_setting(setting, n)
    if is_density:
        rho = state
        for q in range(n):
            rot = _BASIS_ROT[setting[q]]
            if rot is not I2:
                rho = _apply_unitary_density(rho, rot, [q], n)
        probs = np.real(np.diag(rho)).copy()
    else:
        tensor = state.reshape([2] * n)
        for q in range(n):
            rot = _BASIS_ROT[setting[q]]
            if rot is not I2:
                tensor = _apply_local(tensor, rot, [q], n)
        probs = np.abs(tensor.reshape(-1)) ** 2
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    if readout is not None:
        probs = apply_readout_confusion(probs, readout)
    return probs


def apply_readout_confusion(probs: np.ndarray,
                            confusions: Sequence[Tuple[float, float]]) -> np.ndarray:
    """Mix the distribution with per-qubit confusion matrices.

    Each entry is (P(1|0), P(0|1)); columns index the true state.
    """
    n = int(np.log2(len(probs)))
    tensor = np.asarray(probs, dtype=float).reshape([2] * n)
    for q, (p10, p01) in enumerate(confusions[:n]):
        if p10 == 0.0 and p01 == 0.0:
            continue
        conf = np.array([[1 - p10, p01], [p10, 1 - p01]])
        axis = n - 1 - q
        tensor = np.tensordot(conf, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    out = tensor.reshape(-1)
    return out / out.sum()


def sample_counts(state: np.ndarray, setting: str, shots: int, seed: int,
                  readout: Optional[Sequence[Tuple[float, float]]] = None) -> CountsMap:
    """Draw seeded i.i.d. measurement outcomes in the requested Pauli basis."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = measurement_probabilities(state, setting, readout)
    n = int(np.log2(len(probs)))
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    outcomes = {index_to_bitstring(i, n): int(c) for i, c in enumerate(draws) if c > 0}
    return CountsMap(outcomes, shots)


def exact_counts(state: np.ndarray, setting: str,
                 readout: Optional[Sequence[Tuple[float, float]]] = None) -> Dict[str, float]:
    """Sampling-free 'counts': the exact outcome distribution as frequencies."""
    probs = measurement_probabilities(state, setting, readout)
    n = int(np.log2(len(probs)))
    return {index_to_bitstring(i, n): float(p) for i, p in enumerate(probs) if p > 0}
