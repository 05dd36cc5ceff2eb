"""Workload definitions and correctness tolerances shared by the runner and its worker.

This module imports nothing heavy, so the runner can read it without loading
numpy or ccxlab.

All workloads synthesize the Toffoli with strategy ECR_NATIVE, controls (0, 1)
and target 2 (the experiment defaults). The noise-aware workload uses the
packaged ``brisbane_median`` calibration with readout confusion on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

#: circuits executed by one tomography repeat: 4^3 probes x 3^3 settings, or 3^3 settings
QPT_CIRCUITS = 64 * 27
QST_CIRCUITS = 27

#: an exact-probability fidelity must equal its expected value within this
#: tolerance. It is far above the known ~1e-8 round-off loss of
#: ``state_fidelity`` (reported, not hidden, as ``qmath.exact_fid_err``) and
#: far below any modelling error.
EXACT_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "qpt" or "qst"
    mode: str  # ccxlab.experiments.Mode value
    shots: int
    inputs: Tuple[str, ...]  # QST input states, cycled across calls
    repeats_per_call: int
    #: exact-probability fidelity expected for every input
    exact_reference: float
    #: largest |sampled F - exact F| accepted at ``shots``; at other shot
    #: counts it scales as 1/sqrt(shots), like the shot noise on F
    sampled_tol: float
    why: str

    @property
    def circuits_per_repeat(self) -> int:
        return QPT_CIRCUITS if self.kind == "qpt" else QST_CIRCUITS

    def input_for(self, call_index: int) -> str:
        return self.inputs[call_index % len(self.inputs)]

    def sampled_tolerance(self, shots: int) -> float:
        return min(1.0, self.sampled_tol * math.sqrt(self.shots / shots))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="qpt_noisy", kind="qpt", mode="NOISE_AWARE", shots=11000,
            inputs=("GHZ",), repeats_per_call=1,
            # F of the exact-probability run (ECR_NATIVE, brisbane_median,
            # readout confusion on) when this benchmark was written
            exact_reference=0.799953339487185,
            # sampled F sits ~0.0036 below the exact value, per-repeat sd ~1e-3
            sampled_tol=0.01,
            why="paper headline QPT under calibration noise; noise channels and density "
                "evolution dominate, the target of compiling circuits to channels"),
        Workload(
            name="qpt_ideal", kind="qpt", mode="NOISE_FREE", shots=11000,
            inputs=("GHZ",), repeats_per_call=1,
            exact_reference=1.0,
            # sampled F sits ~0.0106 below 1, per-repeat sd ~2e-4
            sampled_tol=0.02,
            why="noise-free QPT; reconstruction and CPTP projection dominate and noise "
                "channels are bypassed, so a channel optimization must not move it"),
        Workload(
            name="qst_ideal", kind="qst", mode="NOISE_FREE", shots=19000,
            inputs=("GHZ", "W", "UNIFORM"), repeats_per_call=10,
            exact_reference=1.0,
            # sampled F sits ~0.013 below 1 (clip-and-renormalize bias), sd ~0.002
            sampled_tol=0.03,
            why="noise-free QST over GHZ, W and UNIFORM inputs; one input and 27 settings "
                "per repeat, so per-circuit set-up cost and the QST estimator show"),
    )
}
