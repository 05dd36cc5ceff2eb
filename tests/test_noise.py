import math

import numpy as np
import pytest

from ccxlab.errors import CoherenceViolation, ErrTooLargeError
from ccxlab.noise import (
    DEFAULT_GATE_DURATIONS_NS,
    KrausChannel,
    NoiseModel,
    QubitCalibration,
    depolarizing_channel,
    scale_noise_model,
    thermal_relaxation_channel,
)
from ccxlab.qmath import dagger
from ccxlab.tomography import average_gate_fidelity, choi_of_unitary, process_fidelity

from channel_oracle import apply_channel, kraus_to_choi


def _assert_trace_preserving(channel, tol=1e-8):
    dim = channel.operators[0].shape[0]
    total = sum(dagger(k) @ k for k in channel.operators)
    assert np.max(np.abs(total - np.eye(dim))) < tol


def test_thermal_zero_duration_is_identity(rng):
    ch = thermal_relaxation_channel(0.0, 100.0, 80.0)
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rho @ dagger(rho)
    rho /= np.trace(rho)
    assert np.max(np.abs(apply_channel(ch, rho) - rho)) < 1e-12


def test_thermal_long_time_relaxes_to_ground():
    ch = thermal_relaxation_channel(1e12, 100.0, 80.0)
    rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
    out = apply_channel(ch, rho)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-6


def test_thermal_damping_probability_value():
    # direct evaluation: gamma = 1 - exp(-0.5/272.21)
    t1 = 272.21
    ch = thermal_relaxation_channel(500.0, t1, 188.10)
    expected_gamma = 1.0 - math.exp(-0.5 / t1)
    assert expected_gamma == pytest.approx(1.835e-3, abs=2e-6)
    # the |0><1| components carry the decay amplitude sqrt(gamma)
    gamma_from_kraus = sum(abs(k[0, 1]) ** 2 for k in ch.operators)
    assert gamma_from_kraus == pytest.approx(expected_gamma, rel=1e-9)


def test_thermal_trace_preserving_grid():
    for duration in (0.0, 57.0, 533.0, 5000.0):
        for t1, t2 in ((272.21, 188.10), (50.0, 90.0), (100.0, 200.0)):
            _assert_trace_preserving(thermal_relaxation_channel(duration, t1, t2))


def test_thermal_rejects_t2_above_2t1():
    with pytest.raises(CoherenceViolation) as info:
        thermal_relaxation_channel(100.0, 50.0, 150.1)
    assert info.value.exit_code == 3


def test_depolarizing_zero_error_identity(rng):
    ch = depolarizing_channel(0.0, 2)
    assert len(ch.operators) == 1


def test_depolarizing_average_fidelity_round_trip():
    # oracle: build the channel's Choi matrix, compare with the identity target
    for dim, k in ((2, 1), (4, 2)):
        err = 0.00756
        ch = depolarizing_channel(err, dim)
        f_pro = process_fidelity(kraus_to_choi(ch.operators), choi_of_unitary(np.eye(dim)))
        assert average_gate_fidelity(f_pro, k) == pytest.approx(1 - err, abs=1e-10)


def test_depolarizing_monotone():
    lams = []
    for err in (0.0, 0.01, 0.05, 0.2):
        ch = depolarizing_channel(err, 2)
        weight = 1 - abs(ch.operators[0][0, 0]) ** 2  # non-identity probability
        lams.append(weight)
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_depolarizing_err_too_large():
    with pytest.raises(ErrTooLargeError):
        depolarizing_channel(0.52, 2)


def test_kraus_channel_rejects_non_tp():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,))


def test_qubit_calibration_coherence_violation():
    with pytest.raises(CoherenceViolation):
        QubitCalibration(t1_us=100.0, t2_us=300.0)
    with pytest.raises(ValueError):
        QubitCalibration(t1_us=100.0, t2_us=80.0, readout_error=1.5)


def test_noise_model_rz_virtual():
    cal = (QubitCalibration(t1_us=100.0, t2_us=80.0),)
    with pytest.raises(ValueError):
        NoiseModel(cal, {"RZ": 0.1}, {})
    with pytest.raises(ValueError):
        NoiseModel(cal, {}, {"RZ": 10.0})
    nm = NoiseModel(cal, {"ECR": 0.01}, {})
    assert nm.error_for("RZ") == 0.0
    assert nm.duration_for("ECR") == DEFAULT_GATE_DURATIONS_NS["ECR"]


def test_scale_noise_model():
    cal = (QubitCalibration(t1_us=100.0, t2_us=80.0, prob_meas1_prep0=0.02),)
    nm = NoiseModel(cal, {"ECR": 0.01}, {})
    scaled = scale_noise_model(nm, 2.0)
    assert scaled.gate_error["ECR"] == pytest.approx(0.02)
    assert scaled.qubit_cal[0].t1_us == pytest.approx(50.0)
    assert scaled.qubit_cal[0].prob_meas1_prep0 == pytest.approx(0.04)
    off = scale_noise_model(nm, 0.0)
    assert math.isinf(off.qubit_cal[0].t1_us)
    assert off.gate_error["ECR"] == 0.0
