"""The reproduction scorecard: noise-aware fidelities beside the paper's.

Each row pins the exact-probability fidelity of a noise-aware run (no shot
noise: ECR_NATIVE, the packaged ``brisbane_median`` calibration, readout
confusion on) and records the paper's noise-aware emulation value beside it,
with the gap, ours minus the paper's. This is a record, not a target: no
model number is tuned toward the paper, and a change that moves a pinned
value must say why.
"""

import pytest

from ccxlab.calibration import builtin_calibration_path
from ccxlab.experiments import ExperimentConfig, run_qpt_experiment, run_qst_experiment

#: row -> (the paper's noise-aware F, ccxlab's exact-probability F, gap)
SCORECARD = {
    "GHZ": (0.81470, 0.8085363137362074, -0.00616),
    "W": (0.79900, 0.7729763699351656, -0.02602),
    "UNIFORM": (0.85469, 0.8457903290684488, -0.00890),
    "QPT": (0.80160, 0.7999530056455366, -0.00165),
}


def _exact_noise_aware_fidelity(row):
    cfg = ExperimentConfig(mode="NOISE_AWARE", input_state="GHZ" if row == "QPT" else row,
                           calibration_path=str(builtin_calibration_path("brisbane_median")),
                           repeats=1, exact_probabilities=True)
    run = run_qpt_experiment if row == "QPT" else run_qst_experiment
    (fidelity,) = run(cfg).fidelities
    return fidelity


@pytest.mark.parametrize("row", sorted(SCORECARD))
def test_noise_aware_fidelity_matches_the_scorecard(row):
    paper, ours, gap = SCORECARD[row]
    assert _exact_noise_aware_fidelity(row) == pytest.approx(ours, abs=1e-9)
    # the recorded gap is the one these numbers give, to the digits shown
    assert ours - paper == pytest.approx(gap, abs=5e-6)
