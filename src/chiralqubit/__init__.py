"""Desk-scale simulator for chiral p-wave superconductor qubits."""

from .chirality import (
    ChernResult,
    CrossValidation,
    DegeneratePlaquette,
    GaplessTexture,
    MethodDisagreement,
    NotConverged,
    chern_plaquette,
    chern_quadrature,
    cross_validate,
)
from .device import (
    GeometryInfeasible,
    MaterialParams,
    QubitGeometry,
    SizingReport,
    max_pair_number,
    max_volume,
    sizing_report,
    zeeman_splitting,
)
from .dynamics import (
    DensityMatrix,
    QubitState,
    StepTooLarge,
    TwoLevelParams,
    beat_probability,
    drive_evolve,
    eigensystem,
    evolve_closed,
    evolve_damped,
)
from .gatescript import Instruction, ScriptError, ScriptRun, parse_script, run_script
from .kspace import GapParams, NonpositiveMu, d_z
from .register import (
    CouplingLink,
    FieldProfile,
    IndexOutOfRange,
    InsufficientGradient,
    LinkOff,
    NotUnitary,
    RegisterState,
    apply_single_gate,
    cnot_composed,
    exchange_pulse,
    hall_voltage,
    initialize_reset,
    measure,
    selective_rf_pulse,
)

__version__ = "0.1.0"
