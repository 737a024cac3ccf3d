"""Time evolution of pulse schedules through one sector product.

Exact mode, for plain schedules (no modulations), is one step per
segment (samples_per_segment equal steps when sampling): each segment's
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
{01,0r}, {10,r0}, {11,R,rr} and the antisymmetric state invariant.
Blocks are held matrix axes first (`SectorBlocks`), and
`SectorBlocks.__matmul__` is the one block product. `sector_step` is
the one step: decay (-i gamma per excited atom) is the imaginary part
of a complex detuning Delta - i gamma, since the drive puts the
detuning once per excited atom. A real detuning takes the 2x2 block in
closed form and the real gauged 3x3 block {11,R,rr} as cos x - i sin x,
with no eigendecomposition: each matrix takes the one series in x^2 to
the degree its own 1-norm needs (to x^4, x^6, x^8 or x^12, up to
1-norms of 0.0066, 0.0381, 0.1150 and 0.4384), and a larger 1-norm the
top degree by scaling and squaring. A complex detuning takes each block
through the stacked `expm` of this module, which shares that scaling
and squaring.
`sector_unitary` and `computational_diagonal` are the only conversions
to the 9x9 layout.

`sector_product` is the one time-ordered product, for every engine and
every scan. Each input keeps its own shape down to `sector_step`, so
steps that differ only in phase share their exponential. The sampled
engine takes it over the intervals between samples and then the running
product of the intervals; a density at a sample is M rho M^dagger for
the product M of the steps so far (there are no jump terms), and lost
trace is never renormalized. What reads only final states takes
`evolution_blocks`, which stacks decay rates on one axis, and applies
it to the state: the decay curves and `convergence_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np
# Unused: kept while perfbench/run.py:measure_imports needs scipy.linalg imported.
import scipy.linalg  # noqa: F401

from .errors import IntegratorFailureError, InvalidParameterError, ModeError
from .hamiltonian import gauged_blocks, sector_gauge, thermal_interaction
from .model import (
    DIMENSION,
    MAX_SUBSTEPS,
    STATE_NORM_TOL,
    DecaySpec,
    Schedule,
    check_count,
    check_density,
    check_index,
    check_number,
    check_state,
)

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

    exact-segment mode, one step per segment (samples_per_segment equal
    steps when sampling), is only legal for schedules without
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
        for name in ("substeps_per_segment", "samples_per_segment"):
            check_count(name, getattr(self, name), 1, MAX_SUBSTEPS)
        # A tolerance that no distance can fall below would double the
        # substeps of convergence_check up to MAX_SUBSTEPS before it fails.
        tolerance = self.convergence_tolerance
        check_number("convergence_tolerance", tolerance)
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise InvalidParameterError(
                f"convergence_tolerance must be finite and > 0, got {tolerance}"
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


def _segment_substeps(schedule: Schedule, config: IntegratorConfig, exact: int = 1) -> int:
    # Exact mode takes `exact` steps per segment: one, or one per sample.
    if config.mode == EXACT:
        return exact
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


def _one_norm(a: np.ndarray) -> np.ndarray:
    """The 1-norm (largest column sum of magnitudes) of each matrix of a
    stack (n, n, *S) held matrix axes first; NaN for a matrix with a NaN."""
    return np.abs(a).sum(axis=0).max(axis=0)


def _scaling_and_squaring(
    generator: np.ndarray, norm: np.ndarray, polynomial, theta: float
) -> np.ndarray:
    """exp of each matrix A of a stack (n, n, *S) held matrix axes first,
    as polynomial(2^-s A) squared s times; norm holds each |A|_1, and
    theta is the largest 1-norm the polynomial takes unscaled.

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003);
    Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)): each
    matrix takes its own s = ceil(log2(|A|_1 / theta)), clipped at 0, so
    the polynomial sees a 1-norm of at most theta. The squarings are
    masked per matrix, so no matrix's arithmetic depends on the rest of
    the stack. A matrix that is not finite, or has a 1-norm of
    _EXPM_NORM_LIMIT or more, gives NaN. The caller passes the norms
    (_one_norm), which the real step also reads for its series class.
    """
    valid = norm < _EXPM_NORM_LIMIT
    # Masking only where a matrix is out of range gives the same bits.
    masked = not valid.all()
    if masked:
        generator, norm = np.where(valid, generator, 0.0), np.where(valid, norm, 0.0)
    squarings = np.ceil(np.log2(np.maximum(norm / theta, 1.0))).astype(int)
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
    matrix = np.asarray(matrix, dtype=complex)
    return _scaling_and_squaring(matrix, _one_norm(matrix), _taylor, _THETA)


# The Taylor coefficients of exp(-i x) = cos x - i x (sin x / x) as
# series in y = x^2: row 0 holds (-1)^k / (2k)! of cos, row 1
# (-1)^k / (2k + 1)! of sin x / x, column k the power y^k.
#
# Both rows to y^m take a real x of 1-norm up to theta_m unscaled, where
# the first neglected term of cos, theta_m^(2m + 2) / (2m + 2)!, is the
# unit roundoff 2^-53 (the rule of _THETA): theta_2 = 0.0066,
# theta_3 = 0.0381, theta_4 = 0.1150 and theta_6 = 0.4384. The top
# degree takes every larger 1-norm by scaling and squaring at theta_6.
_DEGREES = (2, 3, 4, 6)
_THETAS = np.array([(2.0**-53 * math.factorial(2 * m + 2)) ** (1.0 / (2 * m + 2)) for m in _DEGREES])
_SERIES = np.array(
    [[(-1.0) ** k / math.factorial(2 * k + row) for k in range(_DEGREES[-1] + 1)] for row in (0, 1)]
)


def _rotation(x: np.ndarray, degree: int) -> np.ndarray:
    """exp(-i x) for a stack of real 3 x 3 matrices (3, 3, *S) of 1-norm
    at most the theta of degree in _DEGREES: cos x and sin x / x both to
    y^degree, y = x^2, from the shared powers y, ..., y^degree.

    The sums run from the highest power down and accumulate in place,
    cos in the real part of the result; the array of each power, once
    used, takes the next terms, and the identity is added last so that
    a small x keeps its digits. Degree m takes m + 1 products.
    """
    powers = [_product(x, x)]
    for k in range(2, degree + 1):
        # y^k = y^(k // 2) y^(k - k // 2); powers[j] holds y^(j + 1).
        powers.append(_product(powers[k // 2 - 1], powers[k - k // 2 - 1]))
    result = np.empty(x.shape, dtype=complex)
    cos, term = result.real, powers.pop()
    sine = _SERIES[1, degree] * term
    np.multiply(_SERIES[0, degree], term, out=cos)
    for k in range(degree - 1, 0, -1):
        power = powers.pop()
        cos += np.multiply(_SERIES[0, k], power, out=term)
        sine += np.multiply(_SERIES[1, k], power, out=term)
    # The powers are spent: free them before the last product.
    del power, term
    # The diagonals, as views: result and sine are contiguous.
    result.reshape(9, -1)[::4].real += 1.0
    sine.reshape(9, -1)[::4] += 1.0
    np.subtract(0.0, _product(x, sine), out=result.imag)
    return result


def _real_rotation(x: np.ndarray) -> np.ndarray:
    """exp(-i x) for a stack of real 3 x 3 matrices (3, 3, *S), each by
    the series its own 1-norm needs.

    A matrix of 1-norm up to theta_m (_THETAS) takes the _rotation of
    degree m; one above the top theta, non-finite or out of range takes
    the top degree by _scaling_and_squaring. The norm is computed once,
    for the class and the squarings. A stack in one class is taken
    whole; a mixed one is gathered once per class and scattered once, so
    no matrix's arithmetic depends on the rest of the stack.
    """
    norm = _one_norm(x)
    top = len(_DEGREES) - 1
    # NaN sorts last, into the top class, and an empty stack takes it.
    classes = np.searchsorted(_THETAS[:top], norm)
    low = classes.min(initial=top)
    high = top if low == top else classes.max()
    # One class takes the stack whole: its members are all of it, as views.
    result = None if low == high else np.empty(x.shape, dtype=complex)
    for k in range(low, high + 1):
        members = ... if result is None else classes == k
        if result is not None and not members.any():
            continue
        if k < top:
            part = _rotation(x[:, :, members], _DEGREES[k])
        else:
            series = partial(_rotation, degree=_DEGREES[top])
            part = _scaling_and_squaring(x[:, :, members], norm[members], series, _THETAS[top])
        if result is None:
            return part
        result[:, :, members] = part
    return result


_TINY = np.finfo(float).tiny
_EYE2 = np.eye(2)

# Entry (j, k) of a block picks up e^{-i (j - k) phase} from the gauge:
# indices into (1, e^{-i phase}, e^{-2i phase}, e^{i phase}, e^{2i phase}).
_GAUGE_ENTRIES = np.array([[0, 3, 4], [1, 0, 3], [2, 1, 0]])


def _pair_rotation(pair: np.ndarray) -> np.ndarray:
    """exp(-i B) for a stack of real 2 x 2 blocks B (2, 2, *S) with
    coupling c = B[0, 1] and shift Delta = B[1, 1], in closed form:
    e^{-i Delta / 2} (cos w - i sin w / w (B - Delta / 2)), w =
    sqrt(c^2 + Delta^2 / 4)."""
    half = 0.5 * pair[1, 1]
    angle = np.hypot(pair[0, 1], half)
    # sin(w) / w. It only multiplies the coupling and the shift, so below
    # the smallest normal float (where both are smaller still) any
    # finite value will do.
    sine = np.sin(angle) / np.maximum(angle, _TINY)
    eye = _EYE2.reshape(pair.shape[:2] + (1,) * (pair.ndim - 2))
    return np.exp(-1j * half) * (np.cos(angle) * eye - 1j * sine * (pair - half * eye))


def sector_step(rabi, detuning, phase, v, dt) -> SectorBlocks:
    """exp(-i H dt) in sector form for H = drive_hamiltonian(rabi,
    detuning, phase, v); the inputs broadcast to the stack shape S.

    A complex detuning Delta - i gamma gives the decayed step: H carries
    the detuning once per excited atom, so it is then apply_decay of the
    drive at Delta, and gamma may vary along the stack like any input.

    Only the gauge depends on the phase, so the blocks of H dt (linear
    in rabi dt, detuning dt and v dt) are exponentiated at phase 0 on
    the shape of the other inputs, then gauged; the antisymmetric state
    picks up e^{-i Delta dt}. A real detuning takes the pair block in
    closed form (_pair_rotation) and the real triple block x as
    cos x - i sin x by _real_rotation, each matrix by the series of the
    degree its own 1-norm needs, scaled and squared beyond the top
    degree's. A complex one takes both blocks through the stacked
    `expm`: with no closed form a large gamma dt (620, say) stays
    finite, and a complex series would make the real case slower. A
    generator that is not finite or has a 1-norm of 2^53 or more gives
    a NaN step.
    """
    dt = np.asarray(dt, dtype=float)
    rabi, shift, v = rabi * dt, detuning * dt, v * dt
    phase = np.asarray(phase, dtype=float)
    drive, shape = np.broadcast(rabi, shift, v).shape, np.broadcast(rabi, shift, v, phase).shape
    rank = (1,) * len(shape)
    pair, triple = gauged_blocks(rabi, shift, v, rank[len(drive) :] + drive)
    if np.iscomplexobj(pair):
        pair, triple = expm(-1j * pair), expm(-1j * triple)
    else:
        pair, triple = _pair_rotation(pair), _real_rotation(triple)
    gauge = sector_gauge(phase.reshape(rank[phase.ndim :] + phase.shape))
    factors = np.concatenate((gauge, gauge[1:].conj()))[_GAUGE_ENTRIES]
    anti = np.empty(shape, dtype=complex)
    anti[...] = np.exp(-1j * shift)
    return SectorBlocks(pair * factors[:2, :2], triple * factors, anti)


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


def _rows(x: np.ndarray, shape) -> np.ndarray:
    """An input that broadcasts to shape = S + (T,) as rows (prod S, T)
    of the stack flattened, each axis left at size 1 where x does not
    vary along it."""
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    if math.prod(x.shape[:-1]) == 1:
        return x.reshape(1, -1)
    return np.broadcast_to(x, shape[:-1] + x.shape[-1:]).reshape(-1, x.shape[-1])


def sector_product(rabi, detuning, phase, v, dt) -> SectorBlocks:
    """Time-ordered product of the sector_step of a drive stack.

    The drive (rabi, detuning, phase, v) of drive_hamiltonian and the
    step lengths dt broadcast to S + (T,), where T is the time-ordered
    step axis, first step first; the product has the stack shape S.
    A complex detuning Delta - i gamma stays complex: decayed steps.
    Each batch holds at most _BATCH_BLOCKS steps. Whole rows (the T
    steps of one stack element) are batched together and never split,
    so a row's product is the same in any batch; a row longer than the
    budget is sliced along time and its slices multiplied in order.
    Each input keeps its own shape: a batch takes rows and time slices
    of an input only along the axes where it varies, so steps that
    differ only in phase share their exponential in sector_step.
    """
    rabi, phase, v, dt = (np.asarray(x, dtype=float) for x in (rabi, phase, v, dt))
    drive = [rabi, np.asarray(detuning, dtype=np.result_type(detuning, float)), phase, v, dt]
    shape = np.broadcast(*drive).shape
    # One batch needs no reshaping, which saves a gate call about 80 us.
    if math.prod(shape) <= _BATCH_BLOCKS:
        return ordered_product(sector_step(*drive))
    *stack, steps = shape
    rows = [_rows(x, shape) for x in drive]
    count = batch_rows(steps)
    # The whole row when rows fit in a batch, else the budget.
    width = _BATCH_BLOCKS // count
    batches = []
    for first in range(0, math.prod(stack), count):
        total = None
        for start in range(0, steps, width):
            part = (
                row[
                    slice(first, first + count) if len(row) > 1 else slice(None),
                    slice(start, start + width) if row.shape[1] > 1 else slice(None),
                ]
                for row in rows
            )
            product = ordered_product(sector_step(*part))
            total = product if total is None else product @ total
        batches.append(total)
    return SectorBlocks(
        *(np.concatenate(b, axis=-1).reshape(b[0].shape[:-1] + tuple(stack)) for b in zip(*batches))
    )


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
    """The drive (rabi, detuning, phase, v) and the durations as arrays over
    (segments, 1, 1), v over (1, 1, 1), and the segment start times as a column."""
    rabi, detuning, phase, durations = np.array(
        [(s.rabi, s.detuning, s.phase, s.duration) for s in schedule.segments], dtype=float
    ).reshape(-1, 4).T[..., None, None]
    starts = np.concatenate(([0.0], np.cumsum(durations)))[:-1, None]
    return (rabi, detuning, phase, np.full((1, 1, 1), schedule.interaction)), durations, starts


# The Gauss nodes of a substep of length h, as fractions of h: its
# midpoint for MIDPOINT, 1/2 -+ sqrt(3)/6 for MAGNUS4.
_MIDPOINT_NODES = np.array([0.5])
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
# The MAGNUS4 weights (beta_1, beta_2) = 2 (1/4 +- sqrt(3)/6) of the
# drive at the two nodes: each exponential spans h / 2.
_MAGNUS4_WEIGHTS = 0.5 + np.array([1.0, -1.0]) * math.sqrt(3.0) / 3.0


def _substep_drive(schedule: Schedule, steps: int, integrator: str):
    """(rabi, detuning, phase, v, dt) of the exponentials of `steps` equal
    substeps per segment, and the grid they broadcast to: (segments,
    steps, exponentials per substep), in time order.

    Each input keeps size-1 axes where it does not vary: a drive that is
    not modulated stays one value per segment, and v stays size 1
    without thermal vibration. The phase, which never reaches an
    exponential, takes the steps of the grid in the caller and so sets
    the step count; steps that differ only in phase then share their
    exponential in sector_step. Substep times are taken only for a
    phase drive or thermal vibration.

    MIDPOINT takes one exponential per substep: the drive at its midpoint
    over the substep length. MAGNUS4 takes two (_magnus4_drive)."""
    (rabi, detuning, phase, v), durations, starts = _segment_drive(schedule)
    dt = durations / steps
    nodes = _GAUSS_NODES if integrator == MAGNUS4 else _MIDPOINT_NODES
    if schedule.noise is not None:
        from .stochastic import noisy_drive
        rabi, detuning = (x[..., None] for x in noisy_drive(schedule, schedule.noise))
    if schedule.phase_drive is not None or schedule.thermal is not None:
        t = starts[..., None] + (np.arange(steps)[:, None] + nodes) * dt
        if schedule.phase_drive is not None:
            phase = schedule.phase_drive.phase_at(t)
        if schedule.thermal is not None:
            v = thermal_interaction(t, schedule.interaction, schedule.thermal)
    drive = (rabi, detuning, phase, v, dt)
    grid = (len(durations), steps, len(nodes))
    return (_magnus4_drive(*drive) if integrator == MAGNUS4 else drive), grid


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
        # The sums need both nodes of x, even where it does not vary.
        x = np.broadcast_to(x, np.shape(x)[:-1] + (2,))
        return np.stack((b1 * x[..., 0] + b2 * x[..., 1], b2 * x[..., 0] + b1 * x[..., 1]), axis=-1)

    coupling = weighted(rabi * np.exp(1j * phase))
    return np.abs(coupling), weighted(detuning), np.angle(coupling), weighted(v), 0.5 * dt


def evolution_blocks(
    schedule: Schedule, config: IntegratorConfig | None = None, gamma=None
) -> SectorBlocks:
    """The evolution operator in sector form: the sector_product of the
    exponentials of every substep of the config's integrator, where exact
    mode takes one substep per segment; identity blocks if there are none.

    With decay rates gamma (a 1-D sequence, each finite and >= 0), the
    operators of the decay-modified schedule at each rate, stacked on
    one axis: every step takes the detuning Delta - i gamma (under MAGNUS4
    each exponential spans half a substep, decay included). The rates are
    taken as many at a time as one sector_product batch holds rows of the
    steps (one at a time for a row longer than a batch), so the complex
    detunings of one batch of rows at most exist at once. An input that
    does not vary over the steps stays size 1, so under MIDPOINT steps
    that differ only in phase take one exponential per rate and batch.
    """
    config = resolve_config(schedule, config)
    stack = ()
    if gamma is not None:
        rates = np.asarray(gamma, dtype=float).reshape(-1, 1)
        if not np.all(np.isfinite(rates) & (rates >= 0.0)):
            raise InvalidParameterError(f"decay rates must be finite and >= 0, got {gamma}")
        stack = (len(rates),)
    if not schedule.segments:
        ones = np.ones(stack, complex)
        eye = (np.eye(n).reshape((n, n) + (1,) * len(stack)) * ones for n in (2, 3))
        return SectorBlocks(*eye, ones)
    steps = _segment_substeps(schedule, config)
    (rabi, detuning, phase, v, dt), grid = _substep_drive(schedule, steps, config.integrator)
    size = math.prod(grid)
    phase = phase if phase.size == size else np.broadcast_to(phase, grid)
    # Flat steps for the phase and the inputs that vary; the others stay size 1.
    rabi, detuning, phase, v, dt = (
        (x if x.size in (1, size) else np.broadcast_to(x, grid)).reshape(-1)
        for x in (rabi, detuning, phase, v, dt)
    )
    if gamma is None:
        return sector_product(rabi, detuning, phase, v, dt)
    count = batch_rows(size)
    # No rates still make one (empty) product.
    parts = [
        sector_product(rabi, detuning - 1j * rates[first : first + count], phase, v, dt)
        for first in range(0, max(len(rates), 1), count)
    ]
    return SectorBlocks(*(np.concatenate(blocks, axis=-1) for blocks in zip(*parts)))


def evolution_operator(schedule: Schedule, config: IntegratorConfig | None = None) -> np.ndarray:
    """Full 9x9 evolution operator: sector_unitary of evolution_blocks."""
    return sector_unitary(evolution_blocks(schedule, config))


def _sampled(schedule, config, evolve, gamma=0.0) -> PropagationResult:
    """The records at t = 0 (evolving by the identity) and at every sample.
    evolve(operators) maps a stack of 9x9 operators to the evolved states
    or densities and their records, populations and norms, each with its
    own trailing shape.

    Samples fall on every stride-th substep, stride = max(1, substeps //
    samples), and the last of each segment: only at substep ends, so the
    two exponentials of a MAGNUS4 substep share an interval. Exact mode
    is samples_per_segment substeps at stride 1. The exponentials between
    samples are the rows of one sector_product over (segments, intervals,
    stride x exponentials per substep), each input at its compact shape.
    Zero-length substeps, identities whatever their drive, pad a short
    last interval, so only dt and the inputs that vary need padding. A
    batch of at most _BATCH_BLOCKS operators at the samples is the
    running product of its intervals times the last operator before it.
    """
    steps = _segment_substeps(schedule, config, config.samples_per_segment)
    stride = max(1, steps // config.samples_per_segment)
    count = -(-steps // stride)
    (*drive, dt), (segments, _, width) = _substep_drive(schedule, steps, config.integrator)
    if count * stride > steps:
        dt = np.broadcast_to(dt, (segments, steps, 1))

    def intervals(x):
        # x over (segments, intervals, stride x width), size 1 where it was.
        if x.shape[1] > 1:
            x = np.pad(x, ((0, 0), (0, count * stride - steps), (0, 0)))
            x = x.reshape(len(x), count, stride, x.shape[2])
        else:
            x = x[:, :, None]
        if x.shape[2:] != (1, 1):
            x = np.broadcast_to(x, x.shape[:2] + (stride, width))
        return x.reshape(x.shape[:2] + (math.prod(x.shape[2:]),))

    rabi, detuning, phase, v, dt = (intervals(x) for x in (*drive, dt))
    # The phase, which never reaches an exponential, sets the step count.
    phase = np.broadcast_to(phase, phase.shape[:2] + (stride * width,))
    if gamma > 0.0:
        # Decay is -i gamma per excited atom: the imaginary part of the detuning.
        detuning = detuning - 1j * gamma
    _, durations, starts = _segment_drive(schedule)
    ends = np.minimum(np.arange(1, count + 1) * stride, steps)
    times = starts + ends * (durations / steps)[:, 0]
    # The interval products flat, each broadcast over the samples where it does not vary.
    blocks = SectorBlocks(
        *(np.broadcast_to(b, b.shape[: b.ndim - 2] + times.shape).reshape(b.shape[: b.ndim - 2] + (-1,))
          for b in sector_product(rabi, detuning, phase, v, dt))
    )
    final, *initial = (x[0] for x in evolve(np.eye(DIMENSION)[None]))
    records = [np.empty((1 + times.size,) + x.shape, dtype=x.dtype) for x in initial]
    for record, x in zip(records, initial):
        record[0] = x
    carry = SectorBlocks(np.eye(2)[..., None], np.eye(3)[..., None], np.ones(1))
    for first in range(0, times.size, _BATCH_BLOCKS):
        operators = running_product(blocks.at(np.s_[first : first + _BATCH_BLOCKS])) @ carry
        carry = operators.at(np.s_[-1:])
        evolved, *values = evolve(sector_unitary(operators))
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
    psi = _normalized_state(initial)
    return _sampled(schedule, config, lambda full: _state_records(full @ psi))


def _normalized_state(initial) -> np.ndarray:
    """check_state(initial), which must also have norm 1 within STATE_NORM_TOL."""
    psi = check_state(initial)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise InvalidParameterError(f"initial state must be normalized, norm = {norm}")
    return psi


def propagate_basis(
    schedule: Schedule, indices, config: IntegratorConfig | None = None
) -> PropagationResult:
    """propagate_state of each basis state of `indices`, in one propagation.

    The operators do not depend on the state, and the state they evolve
    from basis state j is their column j. final_state is (m, 9) for m
    indices, populations (samples, m, 9) and norms (samples, m).
    """
    config = resolve_config(schedule, config)
    indices = [check_index("basis index", j, DIMENSION) for j in indices]
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
    propagation the check certified. Each final state is the
    evolution_blocks operator applied to the initial state, with no
    sampling; a final state that is not finite (a NaN step) raises at once.
    """
    if config.mode != SUBSTEPPED:
        raise ModeError("convergence check requires substepped mode")
    psi = _normalized_state(initial)

    def final_state(substeps: int) -> np.ndarray:
        refined = replace(config, substeps_per_segment=substeps, integrator=MAGNUS4)
        state = sector_unitary(evolution_blocks(schedule, refined)) @ psi
        check_finite(state[None], "final state", "substeps per segment", [substeps])
        return state

    substeps = int(config.substeps_per_segment)
    previous = final_state(substeps)
    while substeps <= MAX_SUBSTEPS // 2:
        substeps *= 2
        refined = final_state(substeps)
        distance = float(np.linalg.norm(refined - previous))
        if distance < config.convergence_tolerance:
            return ConvergenceReport(
                converged_substeps=substeps,
                distance=distance,
                initial_substeps=int(config.substeps_per_segment),
                integrator=MAGNUS4,
            )
        previous = refined
    raise IntegratorFailureError(
        f"no convergence within {MAX_SUBSTEPS} substeps per segment"
    )
