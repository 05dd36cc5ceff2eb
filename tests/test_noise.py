import math

import numpy as np
import pytest

from ccxlab.errors import CcxlabError, CoherenceViolation, ErrTooLargeError
from ccxlab.noise import (
    DEFAULT_GATE_DURATIONS_NS,
    NoiseModel,
    QubitCalibration,
    _check_trace_preserving,
    depolarizing_channel,
    scale_noise_model,
    thermal_relaxation_channel,
)
from ccxlab.qmath import dagger, state_fidelity
from ccxlab.tomography import average_gate_fidelity, choi_ket_of_unitary

from channel_oracle import kraus_to_choi, superop_to_choi
from kraus_oracle import KrausChannel, depolarizing_kraus, thermal_relaxation_kraus

#: T1, T2 (us) pairs: brisbane-like, T2 above T1, T2 = 2 T1, and no relaxation at all
T1_T2_GRID = ((272.21, 188.10), (50.0, 90.0), (100.0, 200.0), (math.inf, math.inf))


def _apply(superop, rho):
    return (superop @ rho.reshape(-1)).reshape(rho.shape)


def _assert_trace_preserving(superop, tol=1e-8):
    vec_eye = np.eye(math.isqrt(superop.shape[0])).reshape(-1)
    assert np.max(np.abs(vec_eye @ superop - vec_eye)) < tol


def test_thermal_zero_duration_is_identity(rng):
    superop = thermal_relaxation_channel(0.0, 100.0, 80.0)
    assert np.array_equal(superop, np.eye(4))
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rho @ dagger(rho)
    rho /= np.trace(rho)
    assert np.max(np.abs(_apply(superop, rho) - rho)) < 1e-12


def test_thermal_long_time_relaxes_to_ground():
    superop = thermal_relaxation_channel(1e12, 100.0, 80.0)
    rho = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
    assert np.max(np.abs(_apply(superop, rho) - np.diag([1.0, 0.0]))) < 1e-6


def test_thermal_damping_probability_value():
    # direct evaluation: gamma = 1 - exp(-0.5/272.21)
    t1 = 272.21
    superop = thermal_relaxation_channel(500.0, t1, 188.10)
    expected_gamma = 1.0 - math.exp(-0.5 / t1)
    assert expected_gamma == pytest.approx(1.835e-3, abs=2e-6)
    # |1><1| (vec index 3) hands gamma of its weight to |0><0| (vec index 0)
    assert superop[0, 3] == pytest.approx(expected_gamma, rel=1e-9)
    assert superop[3, 3] == pytest.approx(1 - expected_gamma, rel=1e-9)


def test_thermal_trace_preserving_grid():
    for duration in (0.0, 57.0, 533.0, 5000.0):
        for t1, t2 in T1_T2_GRID:
            _assert_trace_preserving(thermal_relaxation_channel(duration, t1, t2))


@pytest.mark.parametrize("duration", [0.0, 57.0, 533.0, 1e12])
@pytest.mark.parametrize("t1, t2", T1_T2_GRID)
def test_thermal_closed_form_matches_the_kraus_oracle(duration, t1, t2):
    expected = thermal_relaxation_kraus(duration, t1, t2).superop()
    assert np.max(np.abs(thermal_relaxation_channel(duration, t1, t2) - expected)) <= 1e-15


def test_thermal_rejects_t2_above_2t1():
    with pytest.raises(CoherenceViolation) as info:
        thermal_relaxation_channel(100.0, 50.0, 150.1)
    assert info.value.exit_code == 3


@pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
def test_thermal_rejects_a_duration_that_is_not_finite_and_nonnegative(duration):
    with pytest.raises(ValueError, match="duration"):
        thermal_relaxation_channel(duration, 100.0, 80.0)


def test_depolarizing_zero_error_identity():
    assert np.array_equal(depolarizing_channel(0.0, 2), np.eye(4))
    assert np.array_equal(depolarizing_channel(0.0, 4), np.eye(16))


def test_depolarizing_average_fidelity_round_trip():
    # oracle: the channel's Choi matrix against the identity target
    for dim, k in ((2, 1), (4, 2)):
        err = 0.00756
        choi = superop_to_choi(depolarizing_channel(err, dim))
        f_pro = state_fidelity(choi, choi_ket_of_unitary(np.eye(dim)))
        assert average_gate_fidelity(f_pro, k) == pytest.approx(1 - err, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 4])
def test_depolarizing_closed_form_matches_the_kraus_oracle(dim):
    bound = 1 - 1 / dim
    for err in (0.0, 1e-6, 0.000236, 0.00832, 0.1, bound / 2, bound - 1e-9):
        superop = depolarizing_channel(err, dim)
        assert np.max(np.abs(superop - depolarizing_kraus(err, dim).superop())) <= 1e-15, err
        _assert_trace_preserving(superop)


def test_depolarizing_monotone():
    # a coherence keeps 1 - lam of itself, so the non-identity weight lam grows with err
    lams = [1 - depolarizing_channel(err, 2)[1, 1].real for err in (0.0, 0.01, 0.05, 0.2)]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_depolarizing_err_too_large():
    with pytest.raises(ErrTooLargeError):
        depolarizing_channel(0.52, 2)


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_depolarizing_rejects_a_dimension_that_is_not_a_power_of_two(dim):
    # checked before the error bound, which divides by dim and names 1 - 1/dim
    with pytest.raises(ValueError, match=rf"dim must be a power of two >= 2, got {dim}$"):
        depolarizing_channel(0.0, dim)


@pytest.mark.parametrize("err", [-0.1, math.nan])
def test_depolarizing_rejects_an_error_that_is_not_a_nonnegative_number(err):
    with pytest.raises(ValueError, match="nonnegative"):
        depolarizing_channel(err, 2)


def _nan_coherence():
    superop = np.eye(4)
    superop[1, 1] = math.nan  # vec(I)^T S does not read the coherences
    return superop


@pytest.mark.parametrize("superop", [0.5 * np.eye(4), np.full((4, 4), math.nan),
                                     _nan_coherence()])
def test_a_map_that_is_not_trace_preserving_fails_the_self_check(superop):
    with pytest.raises(CcxlabError, match="not trace preserving"):
        _check_trace_preserving(superop)


def test_coherence_times_too_short_for_floats_fail_the_self_check():
    # 1/T2 and 1/(2 T1) both overflow to inf, so the dephasing rate is NaN
    with pytest.raises(CcxlabError, match="not trace preserving"):
        thermal_relaxation_channel(57.0, 5e-324, 5e-324)


def test_superop_to_choi_agrees_with_the_kraus_choi():
    channel = depolarizing_kraus(0.1, 4)
    assert np.max(np.abs(superop_to_choi(channel.superop())
                         - kraus_to_choi(channel.operators))) < 1e-15


def test_kraus_channel_rejects_non_tp():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,))


def test_qubit_calibration_coherence_violation():
    with pytest.raises(CoherenceViolation):
        QubitCalibration(t1_us=100.0, t2_us=300.0)
    with pytest.raises(ValueError):
        QubitCalibration(t1_us=100.0, t2_us=80.0, readout_error=1.5)


@pytest.mark.parametrize("length", [math.nan, math.inf, -1.0])
def test_qubit_calibration_rejects_a_readout_length_that_is_not_finite_and_nonnegative(length):
    with pytest.raises(ValueError, match="readout_length_ns"):
        QubitCalibration(t1_us=100.0, t2_us=80.0, readout_length_ns=length)


@pytest.mark.parametrize("name", ["frequency_ghz", "anharmonicity_ghz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_qubit_calibration_rejects_a_non_finite_frequency(name, value):
    with pytest.raises(ValueError, match=f"{name}={value} is not finite"):
        QubitCalibration(t1_us=100.0, t2_us=80.0, **{name: value})


def test_qubit_calibration_accepts_a_negative_anharmonicity():
    assert QubitCalibration(t1_us=100.0, t2_us=80.0, anharmonicity_ghz=-0.31).anharmonicity_ghz < 0


def test_qubit_calibration_accepts_infinite_coherence_times():
    cal = QubitCalibration(t1_us=math.inf, t2_us=math.inf)
    assert np.array_equal(thermal_relaxation_channel(533.0, cal.t1_us, cal.t2_us), np.eye(4))
    for t1, t2 in ((math.nan, 80.0), (100.0, math.nan), (100.0, math.inf)):
        with pytest.raises(CoherenceViolation):
            QubitCalibration(t1_us=t1, t2_us=t2)


@pytest.mark.parametrize("errors, durations", [({"ECR": math.nan}, {}), ({"SX": -0.1}, {}),
                                               ({}, {"ECR": math.nan}), ({}, {"X": math.inf}),
                                               ({}, {"SX": -1.0})])
def test_noise_model_rejects_gate_numbers_that_are_not_finite_and_nonnegative(errors,
                                                                                durations):
    cal = (QubitCalibration(t1_us=100.0, t2_us=80.0),)
    with pytest.raises(ValueError, match="gate (error|duration)"):
        NoiseModel(cal, errors, durations)


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
