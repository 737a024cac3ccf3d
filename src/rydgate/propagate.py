"""Time evolution of pulse schedules through one shared step loop.

`_steps` walks a schedule as a sequence of step operators. The three
engines (`evolution_operator`, `propagate_state`, `propagate_density`)
only differ in how they apply a step and what they record at the
sampled ones. Plain schedules (no modulations) propagate exactly: each
segment's constant Hermitian operator is exponentiated once through its
eigendecomposition (`spectral_step`), and that exponential is reapplied
for every sampling interval of the segment. Modulated schedules (noise,
thermal vibration, phase drive) use midpoint-exponential substeps: the
Hamiltonian is evaluated at each substep midpoint and exponentiated
exactly over the substep. Noise is piecewise constant per substep, so
with the substep count pinned to the noise trace the substepped result
is itself exact.

Substeps are computed in batches of at most `_CHUNK`: the midpoint times
of a batch form one array, the modulations are evaluated on it, the
Hamiltonians are assembled as one (n, 9, 9) stack, and the stack is
exponentiated in one batched call. The step operators are then applied
one at a time in order, so every product is the same as with one
exponential per substep. The batch bound keeps memory flat however many
substeps a segment has.

Dissipative evolution propagates a density matrix under the effective
non-Hermitian operator, rho -> M rho M^dagger with
M = exp(-i H_eff dt); lost trace is reported, never renormalized.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .errors import IntegratorFailureError, InvalidParameterError, ModeError
from .hamiltonian import apply_decay, build_full, drive_hamiltonian, thermal_interaction
from .model import (
    BASIS_LABELS,
    DIMENSION,
    DecaySpec,
    Schedule,
    check_density,
    check_state,
)

EXACT = "exact-segment"
SUBSTEPPED = "substepped"

MAX_SUBSTEPS = 2**20

# Substeps per stacked Hamiltonian/exponential batch. It bounds the
# working memory of one batch (a few MB) independently of the substep count.
_CHUNK = 256

# Trace growth beyond this bound marks a failed dissipative integration.
TRACE_GROWTH_TOL = 1e-7


@dataclass(frozen=True)
class IntegratorConfig:
    """Propagation mode and resolution settings.

    exact-segment mode is only legal for schedules without
    time-dependent modulation. samples_per_segment controls how densely
    population histories are recorded.
    """

    mode: str = EXACT
    substeps_per_segment: int = 1000
    convergence_tolerance: float = 1e-8
    samples_per_segment: int = 100

    def __post_init__(self):
        if self.mode not in (EXACT, SUBSTEPPED):
            raise ModeError(f"unknown integrator mode {self.mode!r}")
        if int(self.substeps_per_segment) < 1:
            raise InvalidParameterError(
                f"substeps per segment must be >= 1, got {self.substeps_per_segment}"
            )
        if int(self.samples_per_segment) < 1:
            raise InvalidParameterError(
                f"samples per segment must be >= 1, got {self.samples_per_segment}"
            )


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a substep-doubling convergence check."""

    converged_substeps: int
    distance: float
    initial_substeps: int


@dataclass(frozen=True)
class PropagationResult:
    """Final state plus sampled trajectories.

    populations holds per-basis occupation (amplitude magnitudes squared
    for states, real diagonal for densities); norms holds the state norm
    (or density trace) at the same timestamps.
    """

    final_state: np.ndarray
    times: np.ndarray
    populations: np.ndarray
    norms: np.ndarray


def write_population_csv(result: PropagationResult, path) -> None:
    """Write the sampled trajectory as CSV: t, P00..Prr, norm."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"P{label}" for label in BASIS_LABELS] + ["norm"])
        for t, row, norm in zip(result.times, result.populations, result.norms):
            writer.writerow(
                [format(float(t), ".12g")]
                + [format(float(p), ".12g") for p in row]
                + [format(float(norm), ".12g")]
            )


def resolve_config(schedule: Schedule, config: IntegratorConfig | None) -> IntegratorConfig:
    """Default to the exact engine for plain schedules, substepped otherwise."""
    if config is None:
        mode = SUBSTEPPED if schedule.has_modulations else EXACT
        return IntegratorConfig(mode=mode)
    if config.mode == EXACT and schedule.has_modulations:
        raise ModeError("exact-segment mode requires a schedule without modulations")
    return config


def _noise_multipliers(schedule: Schedule):
    if schedule.noise is None:
        return None
    from .stochastic import sample_noise_trace

    return sample_noise_trace(schedule.noise, len(schedule.segments))


def _segment_substeps(schedule: Schedule, config: IntegratorConfig) -> int:
    # Noise is piecewise constant per noise substep; pinning the
    # integration grid to it keeps the substepped evolution exact.
    if schedule.noise is not None:
        return int(schedule.noise.substeps)
    return int(config.substeps_per_segment)


def spectral_step(values: np.ndarray, vectors: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) from the eigensystem (values, vectors) of a Hermitian H.

    values and vectors may carry leading stack axes, as returned by
    np.linalg.eigh on a stack of operators; the result is stacked alike.
    t is one duration, or an array of durations, one per operator, whose
    shape broadcasts to S + (1,) for a stack of shape S.
    """
    phases = np.exp(-1j * values * t)[..., None, :]
    return (vectors * phases) @ vectors.conj().swapaxes(-1, -2)


def _exact_step(h: np.ndarray, dt: float) -> np.ndarray:
    return spectral_step(*np.linalg.eigh(h), dt)


def _substep_operators(
    schedule: Schedule,
    seg_index: int,
    t_start: float,
    dt: float,
    steps: int,
    noise_mult,
    exponentiate,
):
    """Midpoint step operators of one segment, computed a chunk at a time.

    Each chunk evaluates the modulations at its substep midpoints as
    arrays, assembles the stacked Hamiltonians and exponentiates them in
    one call; the operators are then yielded one by one.
    """
    segment = schedule.segments[seg_index]
    for first in range(0, steps, _CHUNK):
        last = min(first + _CHUNK, steps)
        t_mid = t_start + (np.arange(first, last) + 0.5) * dt
        # rabi is always an array, so every substep gets its own operator
        # even when nothing is modulated.
        rabi = np.full(last - first, segment.rabi)
        detuning = segment.detuning
        phase = segment.phase
        interaction = schedule.interaction
        if noise_mult is not None:
            rabi = rabi * noise_mult[0][seg_index, first:last]
            detuning = detuning * noise_mult[1][seg_index, first:last]
        if schedule.phase_drive is not None:
            phase = schedule.phase_drive.phase_at(t_mid)
        if schedule.thermal is not None:
            interaction = thermal_interaction(t_mid, schedule.interaction, schedule.thermal)
        yield from exponentiate(drive_hamiltonian(rabi, detuning, phase, interaction), dt)


def _steps(schedule: Schedule, config: IntegratorConfig, samples: int, exponentiate):
    """Yield (t, step operator, sampled) for every step through the schedule.

    t is the time at the end of the step. In exact mode each constant
    segment is split into `samples` equal steps that share one
    exponential, and every step is sampled. In substepped mode each
    substep exponentiates the Hamiltonian at its midpoint, and every
    stride-th substep plus the last of each segment is sampled.
    `exponentiate(h, dt)` maps one operator or a stack of them to the
    step operators.
    """
    exact = config.mode == EXACT
    steps = samples if exact else _segment_substeps(schedule, config)
    stride = max(1, steps // samples)
    noise_mult = _noise_multipliers(schedule)
    t_start = 0.0
    for seg_index, segment in enumerate(schedule.segments):
        dt = segment.duration / steps
        if exact:
            step = exponentiate(build_full(segment, schedule.interaction), dt)
            operators = itertools.repeat(step, steps)
        else:
            operators = _substep_operators(
                schedule, seg_index, t_start, dt, steps, noise_mult, exponentiate
            )
        for k, step in enumerate(operators):
            yield t_start + (k + 1) * dt, step, (k + 1) % stride == 0 or k == steps - 1
        t_start += segment.duration


def propagate_state(
    schedule: Schedule, initial, config: IntegratorConfig | None = None
) -> PropagationResult:
    """Evolve a pure state through the schedule, recording populations."""
    config = resolve_config(schedule, config)
    psi = check_state(initial)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise InvalidParameterError(f"initial state must be normalized, norm = {norm}")

    times = [0.0]
    populations = [np.abs(psi) ** 2]
    norms = [norm]
    for t, step, sampled in _steps(
        schedule, config, config.samples_per_segment, _exact_step
    ):
        psi = step @ psi
        if sampled:
            times.append(t)
            populations.append(np.abs(psi) ** 2)
            norms.append(float(np.linalg.norm(psi)))

    return PropagationResult(
        final_state=psi,
        times=np.array(times),
        populations=np.array(populations),
        norms=np.array(norms),
    )


def evolution_operator(
    schedule: Schedule, config: IntegratorConfig | None = None
) -> np.ndarray:
    """Full 9x9 evolution operator of the schedule."""
    config = resolve_config(schedule, config)
    operator = np.eye(DIMENSION, dtype=complex)
    for _, step, _ in _steps(schedule, config, 1, _exact_step):
        operator = step @ operator
    return operator


def propagate_density(
    schedule: Schedule,
    initial,
    decay: DecaySpec,
    config: IntegratorConfig | None = None,
) -> PropagationResult:
    """Evolve a density matrix under the decay-modified schedule.

    Uses rho -> M rho M^dagger with M = exp(-i H_eff dt); the trace is
    monitored and a growth beyond 1e-7 aborts the integration.
    """
    config = resolve_config(schedule, config)
    rho = check_density(initial)

    times = [0.0]
    populations = [np.real(np.diag(rho)).copy()]
    traces = [float(rho.trace().real)]

    def exponentiate(h: np.ndarray, dt: float) -> np.ndarray:
        if decay.gamma == 0.0:
            return _exact_step(h, dt)
        return expm(-1j * apply_decay(h, decay) * dt)

    for t, m, sampled in _steps(
        schedule, config, config.samples_per_segment, exponentiate
    ):
        rho = m @ rho @ m.conj().T
        if not sampled:
            continue
        trace = float(rho.trace().real)
        if trace > traces[-1] + TRACE_GROWTH_TOL:
            raise IntegratorFailureError(
                f"density trace grew from {traces[-1]} to {trace} at t = {t}"
            )
        times.append(t)
        populations.append(np.real(np.diag(rho)).copy())
        traces.append(trace)

    return PropagationResult(
        final_state=rho,
        times=np.array(times),
        populations=np.array(populations),
        norms=np.array(traces),
    )


def convergence_check(
    schedule: Schedule, initial, config: IntegratorConfig
) -> ConvergenceReport:
    """Double substeps until successive final states agree within tolerance."""
    if config.mode != SUBSTEPPED:
        raise ModeError("convergence check requires substepped mode")
    quiet = replace(config, samples_per_segment=1)
    substeps = int(config.substeps_per_segment)
    previous = propagate_state(schedule, initial, quiet).final_state
    while substeps <= MAX_SUBSTEPS // 2:
        substeps *= 2
        refined = propagate_state(
            schedule, initial, replace(quiet, substeps_per_segment=substeps)
        ).final_state
        distance = float(np.linalg.norm(refined - previous))
        if distance < config.convergence_tolerance:
            return ConvergenceReport(
                converged_substeps=substeps,
                distance=distance,
                initial_substeps=int(config.substeps_per_segment),
            )
        previous = refined
    raise IntegratorFailureError(
        f"no convergence within {MAX_SUBSTEPS} substeps per segment"
    )
