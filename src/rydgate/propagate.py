"""Time evolution of pulse schedules through one shared step loop.

`_steps` walks a schedule as a sequence of step operators. The three
engines (`evolution_operator`, `propagate_state`, `propagate_density`)
only differ in how they apply a step and what they record at the
sampled ones. Plain schedules (no modulations) propagate exactly: each
segment's constant drive is exponentiated once, and that exponential is
reapplied for every sampling interval of the segment. Modulated
schedules (noise, thermal vibration, phase drive) use
midpoint-exponential substeps: the drive is evaluated at each substep
midpoint and exponentiated exactly over the substep. Noise is piecewise
constant per substep, so with the substep count pinned to the noise
trace the substepped result is itself exact.

Unitary steps never build or diagonalise a 9x9 operator. The drive
leaves the sectors {00}, {01,0r}, {10,r0}, {11,R,rr} and the
antisymmetric state invariant, so `sector_system` takes the eigensystem
of each block (the shared 2x2 block in closed form, the 3x3 block by
one batched real `eigh`), `sector_step` turns it and a duration into
`SectorBlocks`, and `sector_unitary` scatters the blocks into 9x9
operators. Sector operators multiply block by block; `ordered_product`
takes the time-ordered product of a stack with a log-depth tree of
pairwise products. Only the decayed density path builds the full
non-Hermitian operator and takes its scipy `expm`.

`sector_product` is the one gate-operator product, used by both modes
of `evolution_operator`, the Monte-Carlo trials, `scan_kappa`, the
interferometer and the composite return probability. It multiplies the
steps of a drive stacked over any shape S along a time-ordered step
axis, in batches of at most `_BATCH_BLOCKS` steps: whole rows are
batched and never split, so a row's product does not depend on its
batch, and a longer row is sliced along time. The state and density
engines instead stream batches of at most `_CHUNK` substeps, apply
each step in order, and record the sampled ones.

Dissipative evolution propagates a density matrix under the effective
non-Hermitian operator, rho -> M rho M^dagger with
M = exp(-i H_eff dt); lost trace is reported, never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import IntegratorFailureError, InvalidParameterError, ModeError
from .hamiltonian import apply_decay, drive_hamiltonian, sector_hamiltonian, thermal_interaction
from .model import DIMENSION, MAX_SUBSTEPS, DecaySpec, Schedule, check_density, check_state

EXACT = "exact-segment"
SUBSTEPPED = "substepped"

# Substeps per streamed batch of propagate_state and propagate_density.
# It bounds the working memory of their 9x9 step stacks (a few MB)
# independently of the substep count.
_CHUNK = 256

# Steps per batch of sector_product. It bounds the working memory of
# one batch to a few MB for any stack shape and step count.
_BATCH_BLOCKS = 2048

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
        for name, count in (
            ("substeps", self.substeps_per_segment),
            ("samples", self.samples_per_segment),
        ):
            if not 1 <= int(count) <= MAX_SUBSTEPS:
                raise InvalidParameterError(
                    f"{name} per segment must lie in [1, {MAX_SUBSTEPS}], got {count}"
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


def resolve_config(schedule: Schedule, config: IntegratorConfig | None) -> IntegratorConfig:
    """Default to the exact engine for plain schedules, substepped otherwise."""
    if config is None:
        mode = SUBSTEPPED if schedule.has_modulations else EXACT
        return IntegratorConfig(mode=mode)
    if config.mode == EXACT and schedule.has_modulations:
        raise ModeError("exact-segment mode requires a schedule without modulations")
    return config


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


class SectorSystem(NamedTuple):
    """Eigensystem of drive_hamiltonian by sector, stacked over a shape S.

    pair (S, 2, 2) is the Hamiltonian block shared by {01,0r} and
    {10,r0}, exponentiated in closed form. values (S, 3) and vectors
    (S, 3, 3) are the eigensystem of the {11,R,rr} block. The energies of
    |00> (0) and of the antisymmetric state (the detuning, pair[..., 1, 1])
    need no solve.
    """

    pair: np.ndarray
    values: np.ndarray
    vectors: np.ndarray


class SectorBlocks(NamedTuple):
    """Operators in sector form, stacked over a shape S.

    pair (S, 2, 2) acts alike on {|01>,|0r>} and {|10>,|r0>}, triple
    (S, 3, 3) on {|11>,|R>,|rr>}, and anti (S, 1, 1) on the
    antisymmetric state; |00> is left unchanged. `a @ b` multiplies
    block by block, and indexing with `at` selects along the stack axes.
    """

    pair: np.ndarray
    triple: np.ndarray
    anti: np.ndarray

    def __matmul__(self, other: "SectorBlocks") -> "SectorBlocks":
        return SectorBlocks(*(a @ b for a, b in zip(self, other)))

    def at(self, index) -> "SectorBlocks":
        return SectorBlocks(*(block[index] for block in self))


def sector_system(rabi, detuning, phase, v) -> SectorSystem:
    """Sector eigensystem of drive_hamiltonian(rabi, detuning, phase, v).

    The inputs broadcast to the stack shape. The {11,R,rr} block is
    diagonalised real, with its drive phase gauged out, by one batched
    eigh; the gauge goes back into the eigenvectors.
    """
    blocks = sector_hamiltonian(rabi, detuning, phase, v)
    values, vectors = np.linalg.eigh(blocks.triple)
    return SectorSystem(blocks.pair, values, blocks.gauge[..., :, None] * vectors)


def sector_step(system: SectorSystem, t) -> SectorBlocks:
    """exp(-i H t) in sector form for the sector eigensystem of H.

    t is one duration or an array of durations that broadcasts against
    the stack shape S of the system; the blocks take the broadcast
    shape. The {01,0r} block is
    e^{-i Delta t / 2} (cos(w t) - i sin(w t) / w (H - Delta / 2))
    with w = sqrt(|c|^2 + Delta^2 / 4) for the coupling c; the
    antisymmetric state picks up e^{-i Delta t}.
    """
    t = np.asarray(t, dtype=float)
    coupling = system.pair[..., 0, 1]
    detuning = system.pair[..., 1, 1].real
    half_detuning = 0.5 * detuning
    rate = np.hypot(np.abs(coupling), half_detuning)
    angle = rate * t
    # sin(w t) / w. It only multiplies the coupling and the detuning, so
    # where w = 0 (both are 0) any finite value will do.
    sine = np.sin(angle) / np.where(rate > 0.0, rate, 1.0)
    cosine = np.cos(angle)
    common = np.exp(-1j * half_detuning * t)
    pair = np.empty(angle.shape + (2, 2), dtype=complex)
    pair[..., 0, 0] = common * (cosine + 1j * half_detuning * sine)
    pair[..., 1, 1] = common * (cosine - 1j * half_detuning * sine)
    pair[..., 0, 1] = -1j * common * coupling * sine
    pair[..., 1, 0] = -1j * common * np.conj(coupling) * sine
    triple = spectral_step(system.values, system.vectors, t[..., None])
    anti = np.exp(-1j * detuning * t)[..., None, None]
    return SectorBlocks(pair, triple, anti)


def ordered_product(steps: SectorBlocks) -> SectorBlocks:
    """Product of a stack of steps along its last stack axis, first step first.

    Adjacent steps are multiplied pairwise, the later one on the left,
    until one is left, so a stack of n steps takes log2(n) stacked
    products. The result drops the last stack axis.
    """
    return SectorBlocks(*(_pairwise_product(block) for block in steps))


def _pairwise_product(stack: np.ndarray) -> np.ndarray:
    while stack.shape[-3] > 1:
        paired = stack[..., 1::2, :, :] @ stack[..., 0:-1:2, :, :]
        if stack.shape[-3] % 2:
            paired = np.concatenate((paired, stack[..., -1:, :, :]), axis=-3)
        stack = paired
    return stack[..., 0, :, :]


def batch_rows(width: int) -> int:
    """Rows of `width` blocks that one batch of _BATCH_BLOCKS holds, at least 1."""
    return max(1, _BATCH_BLOCKS // int(width))


def sector_product(rabi, detuning, phase, v, dt) -> SectorBlocks:
    """Time-ordered product of the steps exp(-i H dt) of a drive stack.

    The drive (rabi, detuning, phase, v) of drive_hamiltonian and the
    step lengths dt broadcast to S + (T,), where T is the time-ordered
    step axis, first step first; the product has the stack shape S.
    Each batch holds at most _BATCH_BLOCKS steps. Whole rows (the T
    steps of one stack element) are batched together and never split,
    so a row's product is the same in any batch; a row longer than the
    budget is sliced along time and its slices multiplied in order.
    """
    drive = [np.asarray(x, dtype=float) for x in (rabi, detuning, phase, v, dt)]
    shape = np.broadcast_shapes(*(x.shape for x in drive))
    # One batch needs no reshaping, which saves a gate call about 80 us.
    if math.prod(shape) <= _BATCH_BLOCKS:
        return _stack_product(*drive)
    *stack, steps = shape
    rows = [np.broadcast_to(x, shape).reshape(-1, steps) for x in drive]
    count = batch_rows(steps)
    # The whole row when rows fit in a batch, else the budget.
    width = _BATCH_BLOCKS // count
    batches = []
    for first in range(0, len(rows[0]), count):
        total = None
        for start in range(0, steps, width):
            part = (row[first : first + count, start : start + width] for row in rows)
            product = _stack_product(*part)
            total = product if total is None else product @ total
        batches.append(total)
    return SectorBlocks(
        *(np.concatenate(b).reshape(tuple(stack) + b[0].shape[1:]) for b in zip(*batches))
    )


def _stack_product(rabi, detuning, phase, v, dt) -> SectorBlocks:
    """sector_product of a stack that fits in one batch."""
    return ordered_product(sector_step(sector_system(rabi, detuning, phase, v), dt))


_SQRT_HALF = math.sqrt(0.5)


def sector_unitary(blocks: SectorBlocks) -> np.ndarray:
    """The stacked 9x9 operators that the sector blocks describe.

    |1r> and |r1> each carry half of R = (|1r> + |r1>)/sqrt(2) and of the
    antisymmetric state, so their entries mix the triple and anti blocks.
    """
    pair, triple, anti = blocks
    full = np.zeros(anti.shape[:-2] + (DIMENSION, DIMENSION), dtype=complex)
    full[..., 0, 0] = 1.0
    full[..., 1:3, 1:3] = pair
    full[..., 3::3, 3::3] = pair
    # Rows and columns (4, 8) are |11>, |rr>; (5, 7) are |1r>, |r1>.
    full[..., 4::4, 4::4] = triple[..., ::2, ::2]
    full[..., 4::4, 5::2] = _SQRT_HALF * triple[..., ::2, 1:2]
    full[..., 5::2, 4::4] = _SQRT_HALF * triple[..., 1:2, ::2]
    full[..., 5, 5] = full[..., 7, 7] = 0.5 * (triple[..., 1, 1] + anti[..., 0, 0])
    full[..., 5, 7] = full[..., 7, 5] = 0.5 * (triple[..., 1, 1] - anti[..., 0, 0])
    return full


def computational_diagonal(blocks: SectorBlocks) -> np.ndarray:
    """The amplitudes (a00, a01, a10, a11) that sector_unitary(blocks)
    puts on the computational diagonal, stacked on a last axis."""
    single = blocks.pair[..., 0, 0]
    return np.stack((np.ones_like(single), single, single, blocks.triple[..., 0, 0]), axis=-1)


def _unitary_steps(drive, dt) -> np.ndarray:
    """9x9 step operators exp(-i H dt) for a drive (rabi, detuning, phase, v)."""
    return sector_unitary(sector_step(sector_system(*drive), dt))


def _segment_drive(schedule: Schedule):
    """The drive (rabi, detuning, phase, v) as arrays over the segments,
    and the segment durations."""
    rabi, detuning, phase, durations = np.array(
        [(s.rabi, s.detuning, s.phase, s.duration) for s in schedule.segments], dtype=float
    ).reshape(-1, 4).T
    return (rabi, detuning, phase, schedule.interaction), durations


def _substep_drives(schedule: Schedule, steps: int, chunk: int = _CHUNK):
    """Yield (t_start, dt, first, drive) for each batch of midpoint substeps.

    Each segment splits into batches of up to `chunk` of its `steps`
    substeps. t_start is the start of the segment, dt its substep length
    and first the index of the batch's first substep in the segment;
    drive is (rabi, detuning, phase, v) evaluated at the substep
    midpoints, each an array with one element per substep or a scalar.
    """
    from .stochastic import noisy_drive

    noise = None if schedule.noise is None else noisy_drive(schedule, schedule.noise)
    t_start = 0.0
    for seg_index, segment in enumerate(schedule.segments):
        dt = segment.duration / steps
        detuning, phase, interaction = segment.detuning, segment.phase, schedule.interaction
        for first in range(0, steps, chunk):
            last = min(first + chunk, steps)
            t_mid = t_start + (np.arange(first, last) + 0.5) * dt
            # rabi is always an array, so every substep gets its own
            # operator even when nothing is modulated.
            rabi = np.full(last - first, segment.rabi)
            if noise is not None:
                rabi = noise[0][seg_index, first:last]
                detuning = noise[1][seg_index, first:last]
            if schedule.phase_drive is not None:
                phase = schedule.phase_drive.phase_at(t_mid)
            if schedule.thermal is not None:
                interaction = thermal_interaction(t_mid, schedule.interaction, schedule.thermal)
            yield t_start, dt, first, (rabi, detuning, phase, interaction)
        t_start += segment.duration


def _steps(schedule: Schedule, config: IntegratorConfig, samples: int, exponentiate):
    """Yield (t, step operator, sampled) for every step through the schedule.

    t is the time at the end of the step. In exact mode each constant
    segment is split into `samples` equal steps that share one
    exponential, and every step is sampled; the segments are
    exponentiated as one stack. In substepped mode each substep
    exponentiates the drive at its midpoint, and every stride-th
    substep plus the last of each segment is sampled.
    `exponentiate(drive, dt)` maps a drive (rabi, detuning, phase, v) of
    arrays and the step lengths, one or one per element, to the stacked
    step operators.
    """
    if config.mode == EXACT:
        drive, durations = _segment_drive(schedule)
        dt = durations / samples
        t_start = 0.0
        for segment, step, step_dt in zip(schedule.segments, exponentiate(drive, dt), dt):
            for k in range(samples):
                yield t_start + (k + 1) * step_dt, step, True
            t_start += segment.duration
        return
    steps = _segment_substeps(schedule, config)
    stride = max(1, steps // samples)
    for t_start, dt, first, drive in _substep_drives(schedule, steps):
        for k, step in enumerate(exponentiate(drive, dt), first):
            yield t_start + (k + 1) * dt, step, (k + 1) % stride == 0 or k == steps - 1


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
        schedule, config, config.samples_per_segment, _unitary_steps
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
    """Full 9x9 evolution operator of the schedule.

    The `sector_product` of the segment exponentials of a plain
    schedule, or of the midpoint substeps of every segment of a
    modulated one.
    """
    config = resolve_config(schedule, config)
    if not schedule.segments:
        return np.eye(DIMENSION, dtype=complex)
    if config.mode == EXACT:
        drive, dt = _segment_drive(schedule)
    else:
        steps = _segment_substeps(schedule, config)
        parts = [
            np.broadcast_arrays(*drive, dt)
            for _, dt, _, drive in _substep_drives(schedule, steps, chunk=steps)
        ]
        *drive, dt = (np.concatenate(column) for column in zip(*parts))
    return sector_unitary(sector_product(*drive, dt))


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

    def exponentiate(drive, dt: float) -> np.ndarray:
        if decay.gamma == 0.0:
            return _unitary_steps(drive, dt)
        generator = apply_decay(drive_hamiltonian(*drive), decay)
        return expm(-1j * generator * np.asarray(dt)[..., None, None])

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
