"""Time evolution of pulse schedules through one sector product.

Plain schedules (no modulations) propagate exactly: each segment's
constant drive is exponentiated once. Modulated schedules (noise,
thermal vibration, phase drive) take substeps, by one of two
integrators. MIDPOINT (the default, second order) exponentiates the
drive at each substep midpoint over the substep. MAGNUS4, the
fourth-order commutator-free Magnus integrator, takes two exponentials
per substep, of weighted sums of the drive at the two Gauss nodes; each
sum is again a drive, so both integrators are one sector_product over
their steps. Noise is piecewise constant per substep, so with the
substep count pinned to the noise trace either result is exact.

No step builds a 9x9 operator. The drive leaves the sectors {00},
{01,0r}, {10,r0}, {11,R,rr} and the antisymmetric state invariant, and
so does decay (-i gamma per excited atom). Blocks are held matrix axes
first (`SectorBlocks`), and `SectorBlocks.__matmul__` is the one block
product. `unitary_step` exponentiates the blocks of a unitary step: the
2x2 block in closed form, the real gauged 3x3 block {11,R,rr} as
cos x - i sin x by scaling and squaring of its Taylor series, with no
eigendecomposition. `decayed_step` exponentiates each block of a
decayed step by the stacked `expm` of this module, which shares that
scaling and squaring. `sector_unitary` and `computational_diagonal`
are the only conversions to the 9x9 layout.

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
from .hamiltonian import gauged_blocks, sector_gauge, thermal_interaction
from .model import DIMENSION, MAX_SUBSTEPS, DecaySpec, Schedule, check_density, check_state

EXACT = "exact-segment"
SUBSTEPPED = "substepped"

MIDPOINT = "midpoint"
MAGNUS4 = "magnus4"

# Steps per batch of sector_product, and sampled operators per batch
# of the engines that scatter them to 9x9. It bounds the working memory
# of one batch to a few MB for any stack shape and step count.
_BATCH_BLOCKS = 2048

# What a NaN step means, for the errors that report one.
NAN_STEP = "a step generator dt H is not finite or has a 1-norm of 2^53 or more"


def check_finite(values, what: str, name: str, axis) -> None:
    """Raise IntegratorFailureError at the first entry of axis whose
    values (along the first axis of values) are not finite: a NaN step."""
    broken = np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))
    if broken.size:
        raise IntegratorFailureError(
            f"{what} is not finite at {name} = {axis[broken[0]]}: {NAN_STEP}"
        )


# Trace growth beyond this bound marks a failed dissipative integration.
TRACE_GROWTH_TOL = 1e-7


@dataclass(frozen=True)
class IntegratorConfig:
    """Propagation mode and resolution settings.

    exact-segment mode is only legal for schedules without
    time-dependent modulation. integrator picks the substep rule of
    substepped mode, MIDPOINT or MAGNUS4. samples_per_segment controls
    how densely population histories are recorded.
    """

    mode: str = EXACT
    substeps_per_segment: int = 1000
    convergence_tolerance: float = 1e-8
    samples_per_segment: int = 100
    integrator: str = MIDPOINT

    def __post_init__(self):
        if self.mode not in (EXACT, SUBSTEPPED):
            raise ModeError(f"unknown integrator mode {self.mode!r}")
        if self.integrator not in (MIDPOINT, MAGNUS4):
            raise ModeError(
                f"unknown integrator {self.integrator!r}; expected {MIDPOINT!r} or {MAGNUS4!r}"
            )
        if self.mode == EXACT and self.integrator != MIDPOINT:
            raise ModeError(f"integrator {self.integrator!r} requires substepped mode")
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
    """Outcome of a substep-doubling convergence check: the substeps per
    segment of the integrator that met the tolerance."""

    converged_substeps: int
    distance: float
    initial_substeps: int
    integrator: str


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


class SectorBlocks(NamedTuple):
    """Operators in sector form, held matrix axes first over a stack shape S.

    pair (2, 2, *S) acts alike on {|01>,|0r>} and {|10>,|r0>}, triple
    (3, 3, *S) on {|11>,|R>,|rr>}, and anti (*S) on the antisymmetric
    state; |00> is left unchanged. `a @ b` multiplies block by block (the
    stack shapes broadcast and must have the same rank), and indexing
    with `at` selects along the stack axes.
    """

    pair: np.ndarray
    triple: np.ndarray
    anti: np.ndarray

    def __matmul__(self, other: "SectorBlocks") -> "SectorBlocks":
        return SectorBlocks(
            _product(self.pair, other.pair),
            _product(self.triple, other.triple),
            self.anti * other.anti,
        )

    def at(self, index) -> "SectorBlocks":
        index = index if isinstance(index, tuple) else (index,)
        matrices = (slice(None), slice(None)) + index
        return SectorBlocks(self.pair[matrices], self.triple[matrices], self.anti[index])


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of n x n matrices held matrix axes first,
    (n, n, *S). The sum over the inner index is written out, so a
    product's arithmetic does not depend on the rest of the stack."""
    total = a[:, 0, None] * b[None, 0]
    for k in range(1, len(b)):
        total += a[:, k, None] * b[None, k]
    return total


# Taylor coefficients of the degree-12 polynomial of exp, and the largest
# 1-norm it takes unscaled: there the first neglected term theta^13 / 13!
# is the unit roundoff 2^-53.
_TAYLOR = [1.0 / math.factorial(k) for k in range(13)]
_THETA = (2.0**-53 * math.factorial(13)) ** (1.0 / 13)

# From a 1-norm of 2^53 on, rounding the generator's entries moves the
# exponent by order 1, so no digit of the exponential is known: such a
# generator gives NaN, as a non-finite one does, after at most 55 squarings.
_EXPM_NORM_LIMIT = 2.0**53


def _scaling_and_squaring(generator: np.ndarray, polynomial) -> np.ndarray:
    """exp of each matrix A of a stack (n, n, *S) held matrix axes first,
    as polynomial(2^-s A) squared s times.

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003);
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)): each
    matrix takes its own s = ceil(log2(|A|_1 / _THETA)), clipped at 0, so
    the polynomial, of degree 12, sees a 1-norm of at most _THETA. The
    squarings are masked per matrix, so no matrix's arithmetic depends on
    the rest of the stack. A matrix that is not finite, or has a 1-norm of
    _EXPM_NORM_LIMIT or more, gives NaN.
    """
    norm = np.abs(generator).sum(axis=0).max(axis=0)
    valid = norm < _EXPM_NORM_LIMIT
    # Masking only where a matrix is out of range gives the same bits.
    masked = not valid.all()
    if masked:
        generator, norm = np.where(valid, generator, 0.0), np.where(valid, norm, 0.0)
    squarings = np.ceil(np.log2(np.maximum(norm / _THETA, 1.0))).astype(int)
    # A new array: the generator may be a view of the caller's matrix.
    x = polynomial(generator * np.ldexp(1.0, -squarings))
    rounds = squarings.max(initial=0)
    shared = squarings.min(initial=rounds)
    for k in range(rounds):
        square = _product(x, x)
        x = square if k < shared else np.where(k < squarings, square, x)
    if masked:
        x[:, :, ~valid] = np.nan
    return x


def _taylor(a: np.ndarray) -> np.ndarray:
    """The degree-12 Taylor polynomial of exp(a), evaluated by
    Paterson-Stockmeyer in the powers up to a^4, the identity added last
    so that a small matrix keeps the digits of a."""
    a2 = _product(a, a)
    a3 = _product(a2, a)
    a4 = _product(a2, a2)
    eye = np.eye(len(a)).reshape(a.shape[:2] + (1,) * (a.ndim - 2))
    c = _TAYLOR
    x = c[8] * eye + c[9] * a + c[10] * a2 + c[11] * a3 + c[12] * a4
    x = c[4] * eye + c[5] * a + c[6] * a2 + c[7] * a3 + _product(a4, x)
    x = c[1] * a + c[2] * a2 + c[3] * a3 + _product(a4, x)
    x += eye
    return x


def expm(matrix) -> np.ndarray:
    """exp of each matrix of a stack (n, n, *S) of small matrices held
    matrix axes first, in the same layout.

    The degree-12 Taylor polynomial by scaling and squaring
    (_scaling_and_squaring). A matrix that is not finite, or has a 1-norm
    of 2^53 (_EXPM_NORM_LIMIT) or more, gives NaN.
    """
    return _scaling_and_squaring(np.asarray(matrix, dtype=complex), _taylor)


# The Taylor coefficients of exp(-i x) = cos x - i x (sin x / x) as
# series in y = x^2: row 0 holds (-1)^k / (2k)! of cos, row 1
# (-1)^k / (2k + 1)! of sin x / x, column k the power y^k. To y^6 the
# rows hold the degree-12 polynomial and one more term.
_SERIES = np.array([[(-1.0) ** k / math.factorial(2 * k + row) for k in range(7)] for row in (0, 1)])
# The identity terms of the two rows, as (3, 3, 2) constants.
_LOW_IDENTITY = np.eye(3)[:, :, None] * _SERIES[:, 0]
_HIGH_IDENTITY = np.eye(3)[:, :, None] * _SERIES[:, 3]


def _rotation(x: np.ndarray) -> np.ndarray:
    """exp(-i x) = cos x - i sin x for a stack of real 3 x 3 matrices
    (3, 3, *S) of 1-norm at most _THETA.

    Both series are evaluated at once, stacked on a new axis, by
    Paterson-Stockmeyer in y, y^2 and y^3 in real arithmetic:
    (a_0 + a_1 y + a_2 y^2) + y^3 (a_3 + a_4 y + a_5 y^2 + a_6 y^3).
    """
    y = _product(x, x)
    y2 = _product(y, y)
    y3 = _product(y2, y)
    rank = (1,) * (x.ndim - 2)
    powers = np.empty((3, 3, 1, 3) + x.shape[2:])
    powers[:, :, 0, 0], powers[:, :, 0, 1], powers[:, :, 0, 2] = y, y2, y3
    terms = _SERIES[:, 4:].reshape((2, 3) + rank) * powers
    high = terms[:, :, :, 0] + terms[:, :, :, 1]
    high += terms[:, :, :, 2]
    high += _HIGH_IDENTITY.reshape((3, 3, 2) + rank)
    terms = _SERIES[:, 1:3].reshape((2, 2) + rank) * powers[:, :, :, :2]
    series = terms[:, :, :, 0] + terms[:, :, :, 1]
    series += _product(y3[:, :, None], high)
    series += _LOW_IDENTITY.reshape((3, 3, 2) + rank)
    return series[:, :, 0] - 1j * _product(x, series[:, :, 1])


_TINY = np.finfo(float).tiny
_EYE2 = np.eye(2)

# Entry (j, k) of a block picks up e^{-i (j - k) phase} from the gauge:
# indices into (1, e^{-i phase}, e^{-2i phase}, e^{i phase}, e^{2i phase}).
_GAUGE_ENTRIES = np.array([[0, 3, 4], [1, 0, 3], [2, 1, 0]])


def _gauged_step_blocks(rabi, detuning, phase, v, dt):
    """The real blocks of H dt at phase 0 (gauged_blocks of rabi dt,
    detuning dt and v dt, as H is linear in them) on the shape of those
    inputs at the rank of the stack shape S; S; and the factors
    (3, 3, *S) e^{-i (j - k) phase} that gauge a block to the phase,
    exactly 1 on the diagonal."""
    dt = np.asarray(dt, dtype=float)
    rabi, shift, v = rabi * dt, detuning * dt, v * dt
    phase = np.asarray(phase, dtype=float)
    drive, shape = np.broadcast(rabi, shift, v).shape, np.broadcast(rabi, shift, v, phase).shape
    rank = (1,) * len(shape)
    gauge = sector_gauge(phase.reshape(rank[phase.ndim :] + phase.shape))
    factors = np.concatenate((gauge, gauge[1:].conj()))[_GAUGE_ENTRIES]
    return (*gauged_blocks(rabi, shift, v, rank[len(drive) :] + drive), shape, factors)


def unitary_step(rabi, detuning, phase, v, dt) -> SectorBlocks:
    """exp(-i H dt) in sector form for H = drive_hamiltonian(rabi,
    detuning, phase, v); the inputs broadcast to the stack shape S.

    Only the gauge depends on the phase, so the blocks are exponentiated
    at phase 0 on the shape of the other inputs, then gauged. The
    {01,0r} block is e^{-i Delta dt / 2} (cos(w dt) - i sin(w dt) / w
    (H - Delta / 2)) with w = sqrt(|c|^2 + Delta^2 / 4) for the coupling
    c, and the antisymmetric state picks up e^{-i Delta dt}. The triple
    block x = T dt is real, and cos x - i sin x goes through
    _scaling_and_squaring: a step whose x is not finite or has a 1-norm
    of 2^53 or more is NaN there.
    """
    pair, triple, shape, factors = _gauged_step_blocks(rabi, detuning, phase, v, dt)
    shift = pair[1, 1]
    half = 0.5 * shift
    angle = np.hypot(pair[0, 1], half)
    # sin(w dt) / (w dt). It only multiplies the coupling and the
    # detuning, so below the smallest normal float (where both are
    # smaller still) any finite value will do.
    sine = np.sin(angle) / np.maximum(angle, _TINY)
    eye = _EYE2.reshape(pair.shape[:2] + (1,) * (pair.ndim - 2))
    # e^{-i half} (cos - i sine (B - half)) for the gauged pair block B.
    pair = np.exp(-1j * half) * (np.cos(angle) * eye - 1j * sine * (pair - half * eye))
    anti = np.empty(shape, dtype=complex)
    anti[...] = np.exp(-1j * shift)
    return SectorBlocks(pair * factors[:2, :2], _scaling_and_squaring(triple, _rotation) * factors, anti)


def decayed_step(rabi, detuning, phase, v, dt, gamma: float) -> SectorBlocks:
    """exp(-i H_eff dt) in sector form, H_eff = H - i gamma (excited atoms).

    H is drive_hamiltonian(rabi, detuning, phase, v). Decay adds -i gamma
    on |0r>, -i gamma diag(0, 1, 2) to the triple block and -i gamma to
    the antisymmetric state; it commutes with the gauge. The pair and
    triple blocks each go through one stacked `expm`. It takes no 2x2
    closed form, so a large gamma dt (620, say) stays finite; a generator
    dt H_eff that is not finite or has a 1-norm of 2^53 or more
    (_EXPM_NORM_LIMIT) gives a NaN step.
    """
    pair, triple, shape, factors = _gauged_step_blocks(rabi, detuning, phase, v, dt)
    pair, triple = pair.astype(complex), triple.astype(complex)
    decay = gamma * np.asarray(dt, dtype=float)
    pair[1, 1] -= 1j * decay
    triple[1, 1] -= 1j * decay
    triple[2, 2] -= 2j * decay
    anti = np.empty(shape, dtype=complex)
    anti[...] = np.exp(-1j * pair[1, 1])
    return SectorBlocks(expm(-1j * pair) * factors[:2, :2], expm(-1j * triple) * factors, anti)


def ordered_product(steps: SectorBlocks) -> SectorBlocks:
    """Product of a stack of steps along its last stack axis, first step first.

    Adjacent steps are multiplied pairwise, the later one on the left,
    until one is left, so a stack of n steps takes log2(n) stacked
    products. The result drops the last stack axis.
    """
    while steps.anti.shape[-1] > 1:
        paired = steps.at(np.s_[..., 1::2]) @ steps.at(np.s_[..., 0:-1:2])
        if steps.anti.shape[-1] % 2:
            paired = SectorBlocks(
                *(np.concatenate((p, s[..., -1:]), axis=-1) for p, s in zip(paired, steps))
            )
        steps = paired
    return steps.at(np.s_[..., 0])


def running_product(steps: SectorBlocks) -> SectorBlocks:
    """The products of the first k + 1 steps of a stack, for each k along
    its last stack axis, first step first.

    Doubling (Hillis & Steele): after the round of span d every entry
    holds the product of up to 2 d steps ending at it, so n steps take
    log2(n) stacked products.
    """
    span = 1
    while span < steps.anti.shape[-1]:
        later = steps.at(np.s_[..., span:]) @ steps.at(np.s_[..., :-span])
        steps = SectorBlocks(
            *(np.concatenate((s[..., :span], l), axis=-1) for s, l in zip(steps, later))
        )
        span *= 2
    return steps


def batch_rows(width: int) -> int:
    """Rows of `width` blocks that one batch of _BATCH_BLOCKS holds, at least 1."""
    return max(1, _BATCH_BLOCKS // int(width))


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
    shape = np.broadcast(*drive).shape
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
        *(np.concatenate(b, axis=-1).reshape(b[0].shape[:-1] + tuple(stack)) for b in zip(*batches))
    )


def _stack_product(rabi, detuning, phase, v, dt, gamma) -> SectorBlocks:
    """sector_product of a stack that fits in one batch."""
    if gamma == 0.0:
        return ordered_product(unitary_step(rabi, detuning, phase, v, dt))
    return ordered_product(decayed_step(rabi, detuning, phase, v, dt, gamma))


_SQRT_HALF = math.sqrt(0.5)


def sector_unitary(blocks: SectorBlocks) -> np.ndarray:
    """The stacked 9x9 operators (*S, 9, 9) that the sector blocks describe.

    |1r> and |r1> each carry half of R = (|1r> + |r1>)/sqrt(2) and of the
    antisymmetric state, so their entries mix the triple and anti blocks.
    """
    anti = blocks.anti
    # The blocks with their matrix axes last, as views.
    axes = tuple(range(2, anti.ndim + 2)) + (0, 1)
    pair, triple = (block.transpose(axes) for block in blocks[:2])
    full = np.zeros(anti.shape + (DIMENSION, DIMENSION), dtype=complex)
    full[..., 0, 0] = 1.0
    full[..., 1:3, 1:3] = pair
    full[..., 3::3, 3::3] = pair
    # Rows and columns (4, 8) are |11>, |rr>; (5, 7) are |1r>, |r1>.
    full[..., 4::4, 4::4] = triple[..., ::2, ::2]
    full[..., 4::4, 5::2] = _SQRT_HALF * triple[..., ::2, 1:2]
    full[..., 5::2, 4::4] = _SQRT_HALF * triple[..., 1:2, ::2]
    full[..., 5, 5] = full[..., 7, 7] = 0.5 * (triple[..., 1, 1] + anti)
    full[..., 5, 7] = full[..., 7, 5] = 0.5 * (triple[..., 1, 1] - anti)
    return full


def computational_diagonal(blocks: SectorBlocks) -> np.ndarray:
    """The amplitudes (a00, a01, a10, a11) that sector_unitary(blocks)
    puts on the computational diagonal, stacked on a last axis."""
    single = blocks.pair[0, 0]
    return np.stack((np.ones_like(single), single, single, blocks.triple[0, 0]), axis=-1)


def _segment_drive(schedule: Schedule):
    """The drive (rabi, detuning, phase, v) as arrays over the segments,
    the segment durations, and the segment start times as a column."""
    rabi, detuning, phase, durations = np.array(
        [(s.rabi, s.detuning, s.phase, s.duration) for s in schedule.segments], dtype=float
    ).reshape(-1, 4).T
    starts = np.concatenate(([0.0], np.cumsum(durations)))[:-1, None]
    return (rabi, detuning, phase, schedule.interaction), durations, starts


# The Gauss nodes of a substep of length h, as fractions of h: its
# midpoint for MIDPOINT, 1/2 -+ sqrt(3)/6 for MAGNUS4.
_MIDPOINT_NODES = np.array([0.5])
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
# The MAGNUS4 weights (beta_1, beta_2) = 2 (1/4 +- sqrt(3)/6) of the
# drive at the two nodes: each exponential spans h / 2.
_MAGNUS4_WEIGHTS = 0.5 + np.array([1.0, -1.0]) * math.sqrt(3.0) / 3.0


def _substep_drive(schedule: Schedule, steps: int, integrator: str):
    """(rabi, detuning, phase, v, dt) of the exponentials of `steps` equal
    substeps per segment, each a (segments, steps, exponentials per
    substep) array even where nothing is modulated, in time order.

    MIDPOINT takes one exponential per substep: the drive at its midpoint
    over the substep length. MAGNUS4 takes two (_magnus4_drive)."""
    from .stochastic import noisy_drive

    (rabi, detuning, phase, v), durations, starts = _segment_drive(schedule)
    dt = (durations / steps)[:, None, None]
    nodes = _GAUSS_NODES if integrator == MAGNUS4 else _MIDPOINT_NODES
    t = starts[..., None] + (np.arange(steps)[:, None] + nodes) * dt
    rabi, detuning, phase = rabi[:, None, None], detuning[:, None, None], phase[:, None, None]
    if schedule.noise is not None:
        rabi, detuning = (x[..., None] for x in noisy_drive(schedule, schedule.noise))
    if schedule.phase_drive is not None:
        phase = schedule.phase_drive.phase_at(t)
    if schedule.thermal is not None:
        v = thermal_interaction(t, schedule.interaction, schedule.thermal)
    # t sets the full shape where nothing is modulated.
    drive = np.broadcast_arrays(rabi, detuning, phase, v, dt, t)[:5]
    return _magnus4_drive(*drive) if integrator == MAGNUS4 else drive


def _magnus4_drive(rabi, detuning, phase, v, dt):
    """The two exponentials of each fourth-order commutator-free Magnus
    substep (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)), from
    the drive at its two Gauss nodes on the last axis: first
    exp(-i h/2 (b1 H1 + b2 H2)), then exp(-i h/2 (b2 H1 + b1 H2)) for
    the weights (b1, b2) = _MAGNUS4_WEIGHTS, which sum to 1.

    H is linear in the coupling (rabi / 2) e^{i phase}, the detuning and
    V, so each weighted sum is again a drive: its rabi and phase are the
    magnitude and argument of the weighted rabi e^{i phase}. Each
    exponential spans h / 2, so a decay rate gamma takes gamma h / 2 of
    decay in each, gamma h in the substep.
    """
    b1, b2 = _MAGNUS4_WEIGHTS

    def weighted(x):
        return np.stack((b1 * x[..., 0] + b2 * x[..., 1], b2 * x[..., 0] + b1 * x[..., 1]), axis=-1)

    coupling = weighted(rabi * np.exp(1j * phase))
    return np.abs(coupling), weighted(detuning), np.angle(coupling), weighted(v), 0.5 * dt


def evolution_operator(
    schedule: Schedule, config: IntegratorConfig | None = None
) -> np.ndarray:
    """Full 9x9 evolution operator: the sector_product of the segments
    of a plain schedule in exact mode, or of the exponentials of every
    substep of the config's integrator in substepped mode."""
    config = resolve_config(schedule, config)
    if not schedule.segments:
        return np.eye(DIMENSION, dtype=complex)
    if config.mode == EXACT:
        drive, dt, _ = _segment_drive(schedule)
        return sector_unitary(sector_product(*drive, dt))
    drive = _substep_drive(schedule, _segment_substeps(schedule, config), config.integrator)
    return sector_unitary(sector_product(*(x.reshape(-1) for x in drive)))


def _sampled_operators(schedule: Schedule, config: IntegratorConfig, gamma: float = 0.0):
    """Sample times over (segments, intervals), and the batches of
    _running_operators that map the initial state to them.

    Exact mode samples each of samples_per_segment equal steps per
    segment, which share one exponential. Substepped mode samples every
    stride-th substep, stride = max(1, substeps // samples), and the
    last of each segment: only at substep ends, so the two exponentials
    of a MAGNUS4 substep share an interval. The exponentials between
    samples are the rows of one sector_product over (segments,
    intervals, stride x exponentials per substep), a short last interval
    padded with zero-length, zero-drive (identity) substeps.
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
        pad = ((0, 0), (0, count * stride - steps), (0, 0))
        drive = _substep_drive(schedule, steps, config.integrator)
        rows = (np.pad(x, pad).reshape(len(x), count, -1) for x in drive)
        dt = durations / steps
        ends = np.minimum(np.arange(1, count + 1) * stride, steps)
    times = starts + ends * dt[:, None]
    return times, _running_operators(sector_product(*rows, gamma), times.shape)


def _running_operators(intervals: SectorBlocks, shape):
    """Yield (k, operators) per batch: the 9x9 products of all steps up to
    the ends of intervals k, k + 1, ... of the time-ordered intervals,
    which broadcast to shape = (segments, intervals), taken flat. A batch
    holds at most _BATCH_BLOCKS operators: the running product of its
    intervals times the last operator of the batch before.
    """
    intervals = SectorBlocks(
        *(np.broadcast_to(b, b.shape[: b.ndim - 2] + shape).reshape(b.shape[: b.ndim - 2] + (-1,))
          for b in intervals)
    )
    carry = SectorBlocks(np.eye(2)[..., None], np.eye(3)[..., None], np.ones(1))
    for first in range(0, math.prod(shape), _BATCH_BLOCKS):
        operators = running_product(intervals.at(np.s_[first : first + _BATCH_BLOCKS])) @ carry
        carry = operators.at(np.s_[-1:])
        yield first, sector_unitary(operators)


def _sampled(schedule, config, evolve, gamma=0.0) -> PropagationResult:
    """The records at t = 0 (evolving by the identity) and at every sample.
    evolve(operators) maps a stack of 9x9 operators to the evolved states
    or densities and their records, populations and norms, each with its
    own trailing shape."""
    times, batches = _sampled_operators(schedule, config, gamma)
    final, *initial = (x[0] for x in evolve(np.eye(DIMENSION)[None]))
    records = [np.empty((1 + times.size,) + x.shape, dtype=x.dtype) for x in initial]
    for record, x in zip(records, initial):
        record[0] = x
    for first, full in batches:
        evolved, *values = evolve(full)
        for record, value in zip(records, values):
            record[1 + first : 1 + first + len(value)] = value
        final = evolved[-1]
    return PropagationResult(final, np.append(0.0, times), *records)


def _state_records(states):
    return states, np.abs(states) ** 2, np.linalg.norm(states, axis=-1)


def propagate_state(
    schedule: Schedule, initial, config: IntegratorConfig | None = None
) -> PropagationResult:
    """Evolve a pure state through the schedule, recording populations."""
    config = resolve_config(schedule, config)
    psi = check_state(initial)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise InvalidParameterError(f"initial state must be normalized, norm = {norm}")
    return _sampled(schedule, config, lambda full: _state_records(full @ psi))


def propagate_basis(
    schedule: Schedule, indices, config: IntegratorConfig | None = None
) -> PropagationResult:
    """propagate_state of each basis state of `indices`, in one propagation.

    The operators do not depend on the state, and the state they evolve
    from basis state j is their column j. final_state is (m, 9) for m
    indices, populations (samples, m, 9) and norms (samples, m).
    """
    config = resolve_config(schedule, config)
    indices = [int(j) for j in indices]
    if not all(0 <= j < DIMENSION for j in indices):
        raise InvalidParameterError(f"basis indices must lie in [0, {DIMENSION}), got {indices}")
    # Rows of contiguous states, as propagate_state holds them.
    return _sampled(
        schedule,
        config,
        lambda full: _state_records(np.ascontiguousarray(full.swapaxes(-1, -2)[..., indices, :])),
    )


def propagate_density(
    schedule: Schedule, initial, decay: DecaySpec, config: IntegratorConfig | None = None
) -> PropagationResult:
    """Evolve a density matrix under the decay-modified schedule.

    Uses rho -> M rho M^dagger with M the product of the steps
    exp(-i H_eff dt) (under MAGNUS4 each of the two exponentials of a
    substep spans half of it, decay included); the trace is checked at
    every sample. A non-finite trace (from a NaN step), a
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
    check_finite(traces, "density trace", "t", times)
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
    """Double MAGNUS4 substeps from config's until successive final
    states agree within config's tolerance.

    The refinement always runs MAGNUS4, whose error falls about 16-fold
    per doubling, whatever config's integrator; the report names it, so
    replace(config, integrator=report.integrator,
    substeps_per_segment=report.converged_substeps) reruns the
    propagation the check certified.
    """
    if config.mode != SUBSTEPPED:
        raise ModeError("convergence check requires substepped mode")
    quiet = replace(config, samples_per_segment=1, integrator=MAGNUS4)
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
                integrator=quiet.integrator,
            )
        previous = refined
    raise IntegratorFailureError(
        f"no convergence within {MAX_SUBSTEPS} substeps per segment"
    )
