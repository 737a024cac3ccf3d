"""Time evolution of pulse schedules through one sector product.

Plain schedules (no modulations) propagate exactly: each segment's
constant drive is exponentiated once. Modulated schedules (noise,
thermal vibration, phase drive) use midpoint-exponential substeps: the
drive is evaluated at each substep midpoint and exponentiated exactly
over the substep. Noise is piecewise constant per substep, so with the
substep count pinned to the noise trace the substepped result is exact.

No step builds a 9x9 operator. The drive leaves the sectors {00},
{01,0r}, {10,r0}, {11,R,rr} and the antisymmetric state invariant, and
so does decay (-i gamma per excited atom). `sector_step` exponentiates
the blocks of a unitary step (the 2x2 block in closed form, the 3x3
block by a batched real `eigh`), `decayed_step` those of a decayed one
(each block by the stacked scaling-and-squaring `expm` of this module),
and `sector_unitary` scatters blocks to 9x9.

`sector_product` is the one time-ordered product, for every engine and
every scan. The sampled engines take it over the intervals between
samples and then the running product of the intervals; a density at a
sample is M rho M^dagger for the product M of the steps so far (there
are no jump terms), and lost trace is never renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
# Unused: kept while perfbench/run.py:measure_imports needs scipy.linalg imported.
import scipy.linalg  # noqa: F401

from .errors import IntegratorFailureError, InvalidParameterError, ModeError
from .hamiltonian import sector_hamiltonian, thermal_interaction
from .model import DIMENSION, MAX_SUBSTEPS, DecaySpec, Schedule, check_density, check_state

EXACT = "exact-segment"
SUBSTEPPED = "substepped"

# Steps per batch of sector_product, and sampled operators per batch
# of the engines that scatter them to 9x9. It bounds the working memory
# of one batch to a few MB for any stack shape and step count.
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
    phases = np.exp(-1j * system.values * t[..., None])[..., None, :]
    triple = (system.vectors * phases) @ system.vectors.conj().swapaxes(-1, -2)
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


# Taylor coefficients of expm's degree-12 polynomial, and the largest
# 1-norm it takes unscaled: there the first neglected term theta^13 / 13!
# is the unit roundoff 2^-53.
_TAYLOR = [1.0 / math.factorial(k) for k in range(13)]
_THETA = (2.0**-53 * math.factorial(13)) ** (1.0 / 13)

# From a 1-norm of 2^53 on, rounding the generator's entries moves the
# exponent by order 1, so no digit of the exponential is known: expm
# gives NaN there, as for a non-finite matrix, after at most 55 squarings.
_EXPM_NORM_LIMIT = 2.0**53


def _soa_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two stacks of n x n matrices held matrix axes first,
    (n, n, N). The sum over the inner index is written out, so a
    product's arithmetic does not depend on the rest of the stack."""
    total = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        total += a[:, k, None] * b[None, k]
    return total


def expm(matrix) -> np.ndarray:
    """exp of each matrix of a stack (..., n, n) of small matrices.

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003);
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)): each
    matrix A is scaled by its own 2^-s, s = ceil(log2(|A|_1 / _THETA))
    clipped at 0, the degree-12 Taylor polynomial of the scaled matrix is
    evaluated in the powers up to A^4 (Paterson-Stockmeyer), and the
    result is squared s times. The squarings are masked per matrix, so no
    matrix's arithmetic depends on the rest of the stack. A matrix that is
    not finite, or has a 1-norm of _EXPM_NORM_LIMIT or more, gives NaN.
    """
    matrix = np.asarray(matrix, dtype=complex)
    shape, n = matrix.shape, matrix.shape[-1]
    a = np.ascontiguousarray(np.moveaxis(matrix.reshape(-1, n, n), 0, -1))
    norm = np.abs(a).sum(axis=0).max(axis=0)
    valid = norm < _EXPM_NORM_LIMIT
    squarings = np.ceil(np.log2(np.maximum(np.where(valid, norm, 0.0) / _THETA, 1.0))).astype(int)
    # A new array: `a` may be a view of the caller's matrix.
    a = np.where(valid, a, 0.0) * np.ldexp(1.0, -squarings)
    a2 = _soa_product(a, a)
    a3 = _soa_product(a2, a)
    a4 = _soa_product(a2, a2)
    eye = np.eye(n)[..., None]
    c = _TAYLOR
    x = c[8] * eye + c[9] * a + c[10] * a2 + c[11] * a3 + c[12] * a4
    x = c[4] * eye + c[5] * a + c[6] * a2 + c[7] * a3 + _soa_product(a4, x)
    # The identity last, so a small matrix keeps the digits of A.
    x = c[1] * a + c[2] * a2 + c[3] * a3 + _soa_product(a4, x)
    x += eye
    for k in range(squarings.max(initial=0)):
        x = np.where(k < squarings, _soa_product(x, x), x)
    x[:, :, ~valid] = np.nan
    return np.moveaxis(x, -1, 0).reshape(shape)


# Excited atoms of |01>, |0r> and of |11>, |R>, |rr>.
_PAIR_EXCITATIONS = np.diag([0.0, 1.0])
_TRIPLE_EXCITATIONS = np.diag([0.0, 1.0, 2.0])


def decayed_step(rabi, detuning, phase, v, dt, gamma: float) -> SectorBlocks:
    """exp(-i H_eff dt) in sector form, H_eff = H - i gamma (excited atoms).

    H is drive_hamiltonian(rabi, detuning, phase, v). Decay adds -i gamma
    on |0r>, -i gamma diag(0, 1, 2) to the gauged triple block (it
    commutes with the gauge) and -i gamma to the antisymmetric state.
    The pair and triple blocks each go through one stacked `expm`. It
    takes no 2x2 closed form, so a large gamma dt (620, say) stays
    finite; a generator dt H_eff that is not finite or has a 1-norm of
    2^53 or more (_EXPM_NORM_LIMIT) gives a NaN step.
    """
    blocks = sector_hamiltonian(rabi, detuning, phase, v)
    pair = blocks.pair - 1j * gamma * _PAIR_EXCITATIONS
    triple = blocks.triple - 1j * gamma * _TRIPLE_EXCITATIONS
    dt = np.asarray(dt, dtype=float)[..., None, None]
    pair_step = expm(-1j * dt * pair)
    triple_step = expm(-1j * dt * triple)
    triple_step = blocks.gauge[..., :, None] * triple_step * blocks.gauge.conj()[..., None, :]
    anti = np.exp(-1j * dt * pair[..., 1:2, 1:2])
    return SectorBlocks(pair_step, triple_step, anti)


def sector_product(rabi, detuning, phase, v, dt, gamma: float = 0.0) -> SectorBlocks:
    """Time-ordered product of the steps exp(-i H dt) of a drive stack.

    The drive (rabi, detuning, phase, v) of drive_hamiltonian and the
    step lengths dt broadcast to S + (T,), where T is the time-ordered
    step axis, first step first; the product has the stack shape S.
    A decay rate gamma > 0 takes decayed_step for every step.
    Each batch holds at most _BATCH_BLOCKS steps. Whole rows (the T
    steps of one stack element) are batched together and never split,
    so a row's product is the same in any batch; a row longer than the
    budget is sliced along time and its slices multiplied in order.
    """
    drive = [np.asarray(x, dtype=float) for x in (rabi, detuning, phase, v, dt)]
    shape = np.broadcast_shapes(*(x.shape for x in drive))
    # One batch needs no reshaping, which saves a gate call about 80 us.
    if math.prod(shape) <= _BATCH_BLOCKS:
        return _stack_product(*drive, gamma)
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
            product = _stack_product(*part, gamma)
            total = product if total is None else product @ total
        batches.append(total)
    return SectorBlocks(
        *(np.concatenate(b).reshape(tuple(stack) + b[0].shape[1:]) for b in zip(*batches))
    )


def _stack_product(rabi, detuning, phase, v, dt, gamma) -> SectorBlocks:
    """sector_product of a stack that fits in one batch."""
    if gamma == 0.0:
        steps = sector_step(sector_system(rabi, detuning, phase, v), dt)
    else:
        steps = decayed_step(rabi, detuning, phase, v, dt, gamma)
    return ordered_product(steps)


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


def _segment_drive(schedule: Schedule):
    """The drive (rabi, detuning, phase, v) as arrays over the segments,
    the segment durations, and the segment start times as a column."""
    rabi, detuning, phase, durations = np.array(
        [(s.rabi, s.detuning, s.phase, s.duration) for s in schedule.segments], dtype=float
    ).reshape(-1, 4).T
    starts = np.concatenate(([0.0], np.cumsum(durations)))[:-1, None]
    return (rabi, detuning, phase, schedule.interaction), durations, starts


def _substep_drive(schedule: Schedule, steps: int):
    """(rabi, detuning, phase, v, dt) of `steps` equal substeps per
    segment: the drive at each substep midpoint and the substep length,
    each a (segments, steps) array even where nothing is modulated."""
    from .stochastic import noisy_drive

    (rabi, detuning, phase, v), durations, starts = _segment_drive(schedule)
    dt = (durations / steps)[:, None]
    t_mid = starts + np.arange(0.5, steps) * dt
    rabi, detuning, phase = rabi[:, None], detuning[:, None], phase[:, None]
    if schedule.noise is not None:
        rabi, detuning = noisy_drive(schedule, schedule.noise)
    if schedule.phase_drive is not None:
        phase = schedule.phase_drive.phase_at(t_mid)
    if schedule.thermal is not None:
        v = thermal_interaction(t_mid, schedule.interaction, schedule.thermal)
    # t_mid sets the full shape where nothing is modulated.
    return np.broadcast_arrays(rabi, detuning, phase, v, dt, t_mid)[:5]


def evolution_operator(
    schedule: Schedule, config: IntegratorConfig | None = None
) -> np.ndarray:
    """Full 9x9 evolution operator: the sector_product of the segments
    of a plain schedule, or of every midpoint substep of a modulated one."""
    config = resolve_config(schedule, config)
    if not schedule.segments:
        return np.eye(DIMENSION, dtype=complex)
    if config.mode == EXACT:
        drive, dt, _ = _segment_drive(schedule)
        return sector_unitary(sector_product(*drive, dt))
    drive = _substep_drive(schedule, _segment_substeps(schedule, config))
    return sector_unitary(sector_product(*(x.reshape(-1) for x in drive)))


def _sampled_operators(schedule: Schedule, config: IntegratorConfig, gamma: float = 0.0):
    """Sample times over (segments, intervals), and the batches of
    _running_operators that map the initial state to them.

    Exact mode samples each of samples_per_segment equal steps per
    segment, which share one exponential. Substepped mode samples every
    stride-th substep, stride = max(1, substeps // samples), and the
    last of each segment. The steps between samples are the rows of one
    sector_product over (segments, intervals, stride), a short last
    interval padded with zero-length, zero-drive (identity) steps.
    """
    samples = config.samples_per_segment
    drive, durations, starts = _segment_drive(schedule)
    if config.mode == EXACT:
        dt = durations / samples
        rows = (np.asarray(x)[..., None, None] for x in (*drive, dt))
        ends = np.arange(1, samples + 1)
    else:
        steps = _segment_substeps(schedule, config)
        stride = max(1, steps // samples)
        count = -(-steps // stride)
        pad = ((0, 0), (0, count * stride - steps))
        drive = _substep_drive(schedule, steps)
        rows = (np.pad(x, pad).reshape(len(x), count, stride) for x in drive)
        dt = durations / steps
        ends = np.minimum(np.arange(1, count + 1) * stride, steps)
    times = starts + ends * dt[:, None]
    return times, _running_operators(sector_product(*rows, gamma), times.shape)


def _running_operators(intervals: SectorBlocks, shape):
    """Yield (k, operators) per batch: the 9x9 products of all steps up to
    the ends of intervals k, k + 1, ..., stacked over (segments, batch).

    intervals broadcasts to shape = (segments, intervals). The segment
    products give the operator at the start of each segment; the running
    product then goes along the interval axis for all segments at once,
    in batches of at most _BATCH_BLOCKS operators.
    """
    segments, count = shape
    if not segments:
        return
    intervals = SectorBlocks(*(np.broadcast_to(b, shape + b.shape[2:]) for b in intervals))
    identity = SectorBlocks(*(np.eye(b.shape[-1], dtype=complex) for b in intervals))
    width = batch_rows(segments)
    batches = [intervals.at(np.s_[:, k : k + width]) for k in range(0, count, width)]
    totals = identity
    for batch in batches:
        totals = ordered_product(batch) @ totals
    starts = [identity]
    for segment in range(segments - 1):
        starts.append(totals.at(segment) @ starts[-1])
    running = [np.stack(b) for b in zip(*starts)]
    for first, batch in zip(range(0, count, width), batches):
        operators = SectorBlocks(*(np.empty(b.shape, dtype=complex) for b in batch))
        for block, product, previous in zip(batch, operators, running):
            for k in range(block.shape[1]):
                previous = np.matmul(block[:, k], previous, out=product[:, k])
        running = [product[:, -1] for product in operators]
        yield first, sector_unitary(operators)


def _sampled(schedule, config, evolve, gamma=0.0) -> PropagationResult:
    """The records at t = 0 (evolving by the identity) and at every sample.
    evolve(operators) maps 9x9 operators stacked over (segments, k) to
    the evolved states or densities, their populations and norms."""
    times, batches = _sampled_operators(schedule, config, gamma)
    populations, norms = np.empty((1 + times.size, DIMENSION)), np.empty(1 + times.size)
    final, populations[0], norms[0] = (x[0, 0] for x in evolve(np.eye(DIMENSION)[None, None]))
    sampled = populations[1:].reshape(times.shape + (DIMENSION,)), norms[1:].reshape(times.shape)
    for first, full in batches:
        evolved, *records = evolve(full)
        for target, record in zip(sampled, records):
            target[:, first : first + record.shape[1]] = record
        final = evolved[-1, -1]
    return PropagationResult(final, np.append(0.0, times), populations, norms)


def propagate_state(
    schedule: Schedule, initial, config: IntegratorConfig | None = None
) -> PropagationResult:
    """Evolve a pure state through the schedule, recording populations."""
    config = resolve_config(schedule, config)
    psi = check_state(initial)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise InvalidParameterError(f"initial state must be normalized, norm = {norm}")

    def evolve(full):
        states = full @ psi
        return states, np.abs(states) ** 2, np.linalg.norm(states, axis=-1)

    return _sampled(schedule, config, evolve)


def propagate_density(
    schedule: Schedule, initial, decay: DecaySpec, config: IntegratorConfig | None = None
) -> PropagationResult:
    """Evolve a density matrix under the decay-modified schedule.

    Uses rho -> M rho M^dagger with M = exp(-i H_eff dt); the trace is
    checked at every sample. A non-finite trace (from a NaN step), a
    trace that underflows to 0 (decay keeps e^{-gamma t} > 0 of it) or a
    growth beyond TRACE_GROWTH_TOL between samples aborts the integration.
    """
    config = resolve_config(schedule, config)
    rho = check_density(initial)

    def evolve(full):
        densities = full @ rho @ full.conj().swapaxes(-1, -2)
        diagonal = np.diagonal(densities, axis1=-2, axis2=-1)
        return densities, diagonal.real, diagonal.sum(axis=-1).real

    result = _sampled(schedule, config, evolve, decay.gamma)
    times, traces = result.times, result.norms
    broken = np.flatnonzero(~np.isfinite(traces))
    if broken.size:
        k = broken[0]
        raise IntegratorFailureError(
            f"density trace {traces[k]} is not finite at t = {times[k]}: a step generator"
            " dt H_eff is not finite or has a 1-norm of 2^53 or more"
        )
    lost = np.flatnonzero(traces == 0.0)
    if lost.size and traces[0] > 0.0:
        k = lost[0]
        raise IntegratorFailureError(
            f"density trace {traces[0]} is lost: the decayed product underflowed to trace 0"
            f" at t = {times[k]}"
        )
    grew = np.flatnonzero(traces[1:] > traces[:-1] + TRACE_GROWTH_TOL)
    if grew.size:
        k = grew[0]
        raise IntegratorFailureError(
            f"density trace grew from {traces[k]} to {traces[k + 1]} at t = {times[k + 1]}"
        )
    return result


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
