"""Geometric controlled-phase gate for two interacting three-level atoms.

The package simulates a two-qubit phase gate driven by four global
pulses whose drive strength is comparable to the interaction shift, so
neither atom is ever protected from double excitation. Closed paths in
each excitation sector return the computational states with a geometric
phase surplus on the doubly occupied one.

Modules:

- model: basis conventions, pulse schedules, parameter specs
- hamiltonian: operator construction, decay and thermal modifications
- geometry: sector phases, analytic sector propagators, cyclic roots
- propagate: exact and substepped state or density evolution
- metrics: accumulated phases, controlled phase, fidelities, leakage
- stochastic: seeded noise, Monte-Carlo averages, thermal fidelity
- experiments: reproducible scan pipelines returning ScanResult
- cli: the rydgate command
"""

from ._version import __version__
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    IntegratorFailureError,
    InvalidParameterError,
    ModeError,
    NumericError,
    RootNotFoundError,
    RydgateError,
    UndefinedPhaseError,
)
from .model import (
    BASIS_LABELS,
    COMPUTATIONAL_INDICES,
    COMPUTATIONAL_LABELS,
    DIMENSION,
    EXCITATION_COUNT,
    DecaySpec,
    NoiseSpec,
    PhaseDriveSpec,
    PulseSegment,
    Schedule,
    ThermalSpec,
    basis_state,
    cyclic_segment_duration,
    standard_schedule,
    time_optimal_schedule,
)
from .hamiltonian import apply_decay, build_full, build_subspace, thermal_interaction
from .geometry import (
    chi,
    composite_cyclic_root,
    composite_return_probability,
    periods,
    sector_evolution,
    u10_lab_frame,
    u11_lab_frame,
)
from .propagate import (
    IntegratorConfig,
    PropagationResult,
    convergence_check,
    evolution_operator,
    propagate_density,
    propagate_state,
)
from .metrics import (
    GateOutcome,
    accumulated_phase,
    compensated_cz_target,
    compensated_fidelity,
    conditional_state_fidelity,
    controlled_phase,
    diagonal_summary,
    gate_fidelity,
    gate_outcome,
    gate_summary,
    ideal_controlled_phase,
    state_fidelity,
    wrap_controlled_phase,
)
from .stochastic import (
    MonteCarloResult,
    monte_carlo_gate_fidelity,
    sample_noise_trace,
    thermal_gate_fidelity,
)
from .experiments import (
    InterferometerSpec,
    ScanResult,
    run_actuating_scan,
    run_decay_curves,
    run_dynamics,
    run_gate,
    run_interferometer,
    run_noise_map,
    run_thermal_map,
    scan_kappa,
)

__all__ = [name for name in dir() if not name.startswith("_")]
