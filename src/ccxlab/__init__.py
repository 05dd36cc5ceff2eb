"""Toffoli-gate synthesis, noise-aware simulation, and tomography toolkit."""

from .circuits import (
    Circuit,
    CouplingGraph,
    circuit_unitary,
    parse_circuit,
    path_graph,
    serialize_circuit,
    validate_connectivity,
)
from .errors import CcxlabError
from .gates import Gate, GateDef, gate_matrix
from .noise import (
    NoiseModel,
    QubitCalibration,
    depolarizing_channel,
    scale_noise_model,
    thermal_relaxation_channel,
)
from .qmath import state_fidelity
from .simulator import run_density
from .states import StateKind, prepare_state, target_state
from .synthesis import (
    DecompositionStrategy,
    EquivalenceReport,
    certify_toffoli,
    cnot_to_ecr,
    decompose_toffoli,
    equivalent_up_to_global_phase,
    to_native,
    toffoli_unitary,
)
from .tomography import (
    average_gate_fidelity,
    measurement_rotation,
    qpt_reconstruct,
    qst_reconstruct,
    qst_settings,
    tp_deviation,
)
from .experiments import (
    ExperimentConfig,
    Mode,
    Report,
    emit_report,
    load_report,
    run_qpt_experiment,
    run_qst_experiment,
)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
