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
top degree by scaling and squaring. Resonance is read from the drive,
once per step: at the paper's detuning -V/2 the |rr> entry 2 Delta + V
is exactly 0, and a step of larger 1-norm then takes the 3x3 block in
closed form instead, without building it: a dark state at energy 0 and
a bright pair that turns in the same closed-form call as the 2x2 block.
A complex detuning takes each block through the stacked `expm` of this
module, which shares that scaling and squaring.
`sector_unitary` and `computational_diagonal` are the only conversions
to the 9x9 layout.

`flat_drive` lays a schedule's steps out as one row (1, T) in time
order, the drive of every engine. `sector_product` is the time-ordered
product of a drive stack S + (T,), for every engine and every scan; the
decay rates are a stack axis of it. `row_products` is its row loop, and
that of the Monte-Carlo trials, in the batches of `row_batches`, the one
budget: at most _BATCH_BLOCKS step exponentials and 4 x _BATCH_BLOCKS
gauged steps per batch, of whole rows. A row whose inputs other than
the phase do not vary along its steps takes one exponential, so rows of
phase-only steps (the decay rates of the time-optimal curve) share one
sector_step call and one tree up to the step limit. Each input keeps
its own shape down to `sector_step`, which exponentiates each block at
the broadcast shape of its own inputs: the pair block at that of
(rabi, detuning, dt), the triple block at that of (rabi, detuning, v,
dt) and the antisymmetric phase at that of (detuning, dt). Only the
gauge broadcasts a block to the stack shape, so steps that differ only
in phase share their exponentials, and a thermal step, whose v varies,
shares its pair block. The sampled engine takes the running product of
the row, _BATCH_BLOCKS steps at a time, and keeps the operators at the
samples; a density at a sample is M rho M^dagger for the product M of
the steps so far (there are no jump terms), and lost trace is never
renormalized. What reads only final states applies the product to the
state: `convergence_check` and the decay curves (the standard ones as
the rows of one sector_product stack over curves and rates).
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
    check_finite_number,
    check_index,
    check_number,
    check_state,
    noisy_drive,
    standard_phases,
)

EXACT = "exact-segment"
SUBSTEPPED = "substepped"

MIDPOINT = "midpoint"
MAGNUS4 = "magnus4"

# Step exponentials per batch of row_batches (and a quarter of its
# gauged steps), and steps per time slice of the sampled engine, whose
# running product keeps every one of them. It bounds the working memory
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


def check_survival(survival, grew_from, what: str, name: str, axis, lost: str) -> None:
    """Raise IntegratorFailureError at the first entry of axis whose surviving
    population (a trace, a squared norm) is not finite (a NaN step), is 0
    where grew_from is positive, with the message lost (decay keeps
    e^{-gamma t} > 0 of it), or exceeds grew_from by more than TRACE_GROWTH_TOL."""
    check_finite(survival, what, name, axis)
    grew_from = np.broadcast_to(grew_from, survival.shape)
    gone = np.flatnonzero((survival == 0.0) & (grew_from > 0.0))
    if gone.size:
        raise IntegratorFailureError(f"{lost} at {name} = {axis[gone[0]]}")
    grew = np.flatnonzero(survival > grew_from + TRACE_GROWTH_TOL)
    if grew.size:
        k = grew[0]
        raise IntegratorFailureError(
            f"{what} grew from {grew_from[k]} to {survival[k]} at {name} = {axis[k]}"
        )


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
        check_finite_number("convergence_tolerance", self.convergence_tolerance, ">")


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
    the series its own 1-norm needs: a matrix of 1-norm up to theta_m
    (_THETAS) takes the _rotation of degree m, and one above the top
    theta, non-finite or out of range the top degree by
    _scaling_and_squaring. The norm is computed once, for the class and
    the squarings. A stack in one class is taken whole; a mixed one is
    gathered once per class and scattered once, so no matrix's
    arithmetic depends on the rest of the stack.
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
_SQRT_TWO = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)

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


def _resonant_triple(bright: np.ndarray) -> np.ndarray:
    """exp(-i x) for a stack of resonant triple generators x = [[0, l,
    0], [l, d, l], [0, l, 0]], as flat entries (9, N), from the flat
    entries (u00, u01, u10, u11) (4, N) of the rotation u of their
    bright pairs.

    The dark state (|11> - |rr>) / sqrt(2) has energy 0, and the bright
    pair {(|11> + |rr>) / sqrt(2), |R>} has coupling sqrt(2) l and shift
    d. Back on {|11>, |R>, |rr>}: r00 = r22 = (u00 + 1) / 2, r02 = r20 =
    (u00 - 1) / 2, each link u01 / sqrt(2), and r11 = u11. No product is
    taken. Below a 1-norm of the top theta, (u00 - 1) / 2 would lose its
    digits to cancellation. The entries stay arrays even for one matrix,
    since numpy's complex scalars round some products unlike its array
    loops.
    """
    # Flat entries: the corners 0, 8 and 2, 6, the links 1, 3, 5, 7 and the centre 4.
    result = np.empty((9,) + bright.shape[1:], dtype=complex)
    result[::8] = 0.5 * (bright[0] + 1.0)
    result[2:7:4] = 0.5 * (bright[0] - 1.0)
    result[1::2] = _SQRT_HALF * bright[1]
    result[4] = bright[3]
    return result


def _resonant_norm(rabi, shift):
    """The 1-norm (|l| + |shift|) + |l|, l = rabi / sqrt(2), of the
    triple of gauged_blocks(rabi, shift, v) where its rr entry is 0:
    its column sums, each in the order of _one_norm, and the largest
    is the middle one, so it has the bits that _one_norm gives."""
    link = np.abs(rabi / _SQRT_TWO)
    return (link + np.abs(shift)) + link


def _real_blocks(rabi, shift, v, rank: int):
    """exp(-i B) of the real blocks B of gauged_blocks(rabi, shift, v,
    rank), the pair and the triple of a step, with resonance read from
    the drive.

    A step is resonant where the triple's rr entry (shift + shift) + v
    is exactly 0, the bits of gauged_blocks, and its _resonant_norm lies
    above the top theta and below 2^53. The rr entry is tested first, so
    a stack off resonance pays one comparison. A resonant triple is a
    dark state at energy 0 and a bright pair with coupling rabi and
    shift `shift`, which takes the same _pair_rotation call as the pair
    block, stacked on a third axis; _resonant_triple assembles the
    triple's exponential from it, so its generator is never built and
    no product is taken. Both blocks then have the triple's shape. Any
    other step builds its triple and takes the series, _real_rotation.
    A mixed stack is gathered by the mask and scattered, so no step's
    bits depend on its stack.
    """
    resonant = (shift + shift) + v == 0.0
    if resonant.any():
        norm = _resonant_norm(rabi, shift)
        resonant = resonant & (norm > _THETAS[-1]) & (norm < _EXPM_NORM_LIMIT)
    if not resonant.any():
        pair, triple = gauged_blocks(rabi, shift, v, rank)
        return _pair_rotation(pair), _real_rotation(triple)
    shape = (1,) * (rank - resonant.ndim) + resonant.shape
    if not resonant.all():
        drive = np.broadcast_arrays(rabi, shift, v)
        blocks = [np.empty((n, n) + resonant.shape, dtype=complex) for n in (2, 3)]
        for members in (resonant, ~resonant):
            for block, part in zip(blocks, _real_blocks(*(x[members] for x in drive), 1)):
                block[:, :, members] = part
        return tuple(block.reshape(block.shape[:2] + shape) for block in blocks)
    # The pair block and the bright pair, on axis 2. The bright coupling
    # sqrt(2) l is rounded from the link l, as the triple would hold it.
    blocks = np.zeros((2, 2, 2) + shape)
    blocks[0, 1, 0] = blocks[1, 0, 0] = 0.5 * rabi
    blocks[0, 1, 1] = blocks[1, 0, 1] = _SQRT_TWO * (rabi / _SQRT_TWO)
    blocks[1, 1] = shift
    u = _pair_rotation(blocks)
    triple = _resonant_triple(u.reshape(4, 2, -1)[:, 1])
    return u[:, :, 0], triple.reshape((3, 3) + shape)


def sector_step(rabi, detuning, phase, v, dt) -> SectorBlocks:
    """exp(-i H dt) in sector form for H = drive_hamiltonian(rabi,
    detuning, phase, v); the inputs broadcast to the stack shape S.

    A complex detuning Delta - i gamma gives the decayed step: H carries
    the detuning once per excited atom, so it is then apply_decay of the
    drive at Delta, and gamma may vary along the stack like any input.

    Only the gauge depends on the phase, so the blocks of H dt (linear
    in rabi dt, detuning dt and v dt) are exponentiated at phase 0, each
    at the broadcast shape of its own inputs: the pair block at that of
    (rabi, detuning, dt), the triple block at that of (rabi, detuning,
    v, dt), and the antisymmetric state's e^{-i Delta dt} at that of
    (detuning, dt). The gauge then broadcasts each to S, so a stack
    whose v varies takes one pair exponential per distinct (rabi,
    detuning, dt).

    A real detuning takes _real_blocks, which decides resonance from
    the drive. At detuning -v / 2, the paper's, a step is resonant:
    halving commutes with rounding, so detuning dt is exactly -v dt / 2
    and the triple's rr entry (detuning dt + detuning dt) + v dt is
    exactly 0. Past the top degree's 1-norm such a step takes the
    closed form of a dark state and a bright pair, whose rotation shares
    the pair block's _pair_rotation call, with no product and no
    squaring, and its unitarity defect does not grow with the duration;
    a stack with a resonant step takes its pair block at the triple's
    shape. Any other step takes the pair block in closed form
    (_pair_rotation) and the real triple block x as cos x - i sin x by
    _real_rotation, the series kernel: each matrix by the series of the
    degree its own 1-norm needs, scaled and squared beyond the top
    degree's. A complex detuning takes both blocks through the stacked
    `expm`: with no closed form a large gamma dt (620, say) stays
    finite, and a complex series would make the real case slower. A
    generator that is not finite or has a 1-norm of 2^53 or more gives
    a NaN step.
    """
    dt = np.asarray(dt, dtype=float)
    rabi, shift, v = rabi * dt, detuning * dt, v * dt
    phase = np.asarray(phase, dtype=float)
    shape = np.broadcast(rabi, shift, v, phase).shape
    rank = (1,) * len(shape)
    if np.iscomplexobj(shift):
        pair, triple = gauged_blocks(rabi, shift, v, len(shape))
        pair, triple = expm(-1j * pair), expm(-1j * triple)
    else:
        pair, triple = _real_blocks(rabi, shift, v, len(shape))
    gauge = sector_gauge(phase.reshape(rank[phase.ndim :] + phase.shape))
    factors = np.concatenate((gauge, gauge[1:].conj()))[_GAUGE_ENTRIES]
    # The gauge broadcasts each block to the stack shape: the triple's
    # inputs and the phase span it, and the pair and anti are written
    # into arrays of it.
    anti = np.empty(shape, dtype=complex)
    anti[...] = np.exp(-1j * shift)
    pair = np.multiply(pair, factors[:2, :2], out=np.empty((2, 2) + shape, dtype=complex))
    return SectorBlocks(pair, triple * factors, anti)


def _halved(product, x: np.ndarray) -> np.ndarray:
    """The products of adjacent entries of x along its last axis, the
    later one on the left; an odd last entry is carried as it is."""
    paired = product(x[..., 1::2], x[..., 0:-1:2])
    if x.shape[-1] % 2:
        paired = np.concatenate((paired, x[..., -1:]), axis=-1)
    return paired


def ordered_product(steps: SectorBlocks) -> SectorBlocks:
    """Product of a stack of steps along its last stack axis, first step first.

    Adjacent steps are multiplied pairwise, the later one on the left,
    until one is left, so a stack of n steps takes log2(n) stacked
    products. Each round runs on the three block arrays. The result
    drops the last stack axis; no steps give identity blocks.
    """
    pair, triple, anti = steps
    if anti.shape[-1] == 0:
        ones = np.ones(anti.shape[:-1], complex)
        eye = (np.eye(n).reshape((n, n) + (1,) * ones.ndim) * ones for n in (2, 3))
        return SectorBlocks(*eye, ones)
    while anti.shape[-1] > 1:
        pair, triple = _halved(_product, pair), _halved(_product, triple)
        anti = _halved(np.multiply, anti)
    return SectorBlocks(pair[..., 0], triple[..., 0], anti[..., 0])


def _doubled(product, x: np.ndarray, span: int) -> np.ndarray:
    """x with each entry from span on multiplied on the right by the
    entry span before it, along the last axis."""
    return np.concatenate((x[..., :span], product(x[..., span:], x[..., :-span])), axis=-1)


def running_product(steps: SectorBlocks) -> SectorBlocks:
    """The products of the first k + 1 steps of a stack, for each k along
    its last stack axis, first step first.

    Doubling (Hillis & Steele): after the round of span d every entry
    holds the product of up to 2 d steps ending at it, so n steps take
    log2(n) stacked products. Each round runs on the three block arrays.
    """
    (pair, triple, anti), span = steps, 1
    while span < anti.shape[-1]:
        pair, triple = _doubled(_product, pair, span), _doubled(_product, triple, span)
        anti = _doubled(np.multiply, anti, span)
        span *= 2
    return SectorBlocks(pair, triple, anti)


def row_batches(rows: int, width: int, exponentials: int | None = None):
    """The slices of rows that the batches of rows of `width` steps take,
    each step of a row gauged from one of its `exponentials` exponentials
    (width by default): as many whole rows as hold at most _BATCH_BLOCKS
    exponentials and 4 x _BATCH_BLOCKS steps, at least one."""
    exponentials = width if exponentials is None else exponentials
    count = max(1, min(_BATCH_BLOCKS // int(exponentials), 4 * _BATCH_BLOCKS // int(width)))
    return (slice(first, first + count) for first in range(0, rows, count))


def row_products(drive, rows: int, steps: int, exponentials: int | None = None):
    """The time-ordered sector products of rows of `steps` steps, one
    batch of row_batches at a time, each stacked over its batch's rows.

    drive(batch) returns the sector_step inputs (rabi, detuning, phase,
    v, dt) of the rows of the slice batch, each at its compact shape
    (rows of the batch or 1, steps or 1), so that only one batch of
    them exists at once. exponentials is the count of each row's step
    exponentials: steps (the default) when an input other than the
    phase varies along the steps, or 1 when none does, so that every
    step of a row is a gauge of one exponential. A batch holds at most
    _BATCH_BLOCKS exponentials and 4 x _BATCH_BLOCKS steps. Whole rows
    are never split between batches, so a row's product is the same in
    any batch; a row longer than one batch is sliced along time, into
    slices of _BATCH_BLOCKS steps, or of 4 x _BATCH_BLOCKS steps for
    rows of one exponential, and its slices are multiplied in order.
    """
    exponentials = steps if exponentials is None else exponentials
    span = 4 * _BATCH_BLOCKS if exponentials == 1 else _BATCH_BLOCKS
    for batch in row_batches(rows, steps, exponentials):
        inputs = drive(batch)
        total = None
        for start in range(0, steps, span):
            part = (x[:, start : start + span] if x.shape[1] > 1 else x for x in inputs)
            product = ordered_product(sector_step(*part))
            total = product if total is None else product @ total
        yield total


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
    A stack of more than _BATCH_BLOCKS steps is taken by row_products,
    whose rows are the T steps of each stack element. Each input keeps
    its own shape: a batch takes rows and time slices of an input only
    along the axes where it varies, so steps that differ only in phase
    share their exponential in sector_step.
    """
    rabi, phase, v, dt = (np.asarray(x, dtype=float) for x in (rabi, phase, v, dt))
    drive = [rabi, np.asarray(detuning, dtype=np.result_type(detuning, float)), phase, v, dt]
    shape = np.broadcast(*drive).shape
    # One batch needs no reshaping, which saves a gate call about 80 us.
    if math.prod(shape) <= _BATCH_BLOCKS:
        return ordered_product(sector_step(*drive))
    *stack, steps = shape
    rows = [_rows(x, shape) for x in drive]
    rabi, detuning, _, v, dt = rows
    # One exponential a row unless an input but the phase varies along it.
    stepwise = max(x.shape[1] for x in (rabi, detuning, v, dt)) > 1
    batches = row_products(
        lambda batch: [row[batch] if len(row) > 1 else row for row in rows],
        math.prod(stack),
        steps,
        steps if stepwise else 1,
    )
    return SectorBlocks(
        *(np.concatenate(b, axis=-1).reshape(b[0].shape[:-1] + tuple(stack)) for b in zip(*batches))
    )


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
    single, double = blocks.pair[0, 0], blocks.triple[0, 0]
    # Filled in place: for one point, np.stack's overhead is several times this.
    amplitudes = np.empty(np.shape(single) + (4,), np.result_type(single, double))
    amplitudes[..., 0] = 1.0
    amplitudes[..., 1:3] = single[..., None]
    amplitudes[..., 3] = double
    return amplitudes


def standard_diagonal(rabi, v, durations) -> np.ndarray:
    """computational_diagonal of the standard four-segment product: drive
    rabi, detuning -v / 2, the standard_phases() and segments of length
    durations. rabi and durations are numbers, or stacks S + (1,) whose
    last axis the segments take; the result is S + (4,). The drive does
    not vary over the segments, so each point takes one exponential."""
    product = sector_product(rabi, -v / 2.0, standard_phases(), v, durations)
    return computational_diagonal(product)


def _segment_drive(schedule: Schedule):
    """The drive (rabi, detuning, phase, v) and the durations as arrays over
    (segments, 1, 1), each (1, 1, 1) where every segment has its bits (v
    always), and the segment start times as a column."""
    columns = np.array(
        [(s.rabi, s.detuning, s.phase, s.duration) for s in schedule.segments], dtype=float
    ).reshape(-1, 4)
    starts = np.concatenate(([0.0], np.cumsum(columns[:, 3])))[:-1, None]
    bits = columns.view(np.uint64)
    rabi, detuning, phase, durations = (
        x[:1] if (b == b[:1]).all() else x for x, b in zip(columns.T[..., None, None], bits.T)
    )
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
    not modulated stays one value per segment, or one value where every
    segment has its bits (_segment_drive), and v stays size 1 without
    thermal vibration. The phase, which never reaches an
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
        rabi, detuning = (x[..., None] for x in noisy_drive(schedule, schedule.noise))
    if schedule.phase_drive is not None or schedule.thermal is not None:
        t = starts[..., None] + (np.arange(steps)[:, None] + nodes) * dt
        if schedule.phase_drive is not None:
            phase = schedule.phase_drive.phase_at(t)
        if schedule.thermal is not None:
            v = thermal_interaction(t, schedule.interaction, schedule.thermal)
    drive = (rabi, detuning, phase, v, dt)
    grid = (len(schedule.segments), steps, len(nodes))
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


def flat_drive(schedule: Schedule, config: IntegratorConfig, exact: int = 1):
    """The sector_step inputs (rabi, detuning, phase, v, dt) of the
    exponentials of every substep of the config's integrator, where exact
    mode takes `exact` substeps per segment (_segment_substeps), as one
    row (1, T) over the T exponentials in time order. This row is the
    drive layout of every engine; an empty schedule's is (1, 0).

    An input that does not vary over the steps stays (1, 1): one that
    is not modulated and has the same bits on every segment, as the
    standard schedule's rabi, detuning and duration do, or v without
    thermal vibration. One that differs between segments spans the T
    steps. The phase, which never reaches an exponential, spans them
    too and so sets the step count. sector_step then exponentiates each
    block at the shape of its own inputs: (1, 1), one exponential for
    every step, where none of them spans the steps."""
    steps = _segment_substeps(schedule, config, exact)
    (rabi, detuning, phase, v, dt), grid = _substep_drive(schedule, steps, config.integrator)
    phase = np.broadcast_to(phase, grid)
    return tuple(
        (x if x.size in (1, phase.size) else np.broadcast_to(x, grid)).reshape(1, -1)
        for x in (rabi, detuning, phase, v, dt)
    )


def _decay_rates(gamma) -> np.ndarray:
    """The decay rates gamma, a 1-D sequence (empty or not) of real
    numbers (check_number: no bools), finite and >= 0, as a column (R, 1)."""
    expected = "decay rates must be a 1-D sequence of finite numbers >= 0, got {!r}"
    try:
        shape = np.shape(gamma)
    except ValueError:  # a ragged nest of sequences
        raise InvalidParameterError(expected.format(gamma)) from None
    if len(shape) != 1:
        raise InvalidParameterError(expected.format(gamma))
    if not (isinstance(gamma, np.ndarray) and gamma.dtype.kind in "fiu"):
        for rate in gamma:
            check_number("decay rates", rate)
    rates = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(rates) & (rates >= 0.0)):
        raise InvalidParameterError(expected.format(gamma))
    return rates[:, None]


def evolution_blocks(
    schedule: Schedule, config: IntegratorConfig | None = None, gamma=None
) -> SectorBlocks:
    """The evolution operator in sector form: the sector_product of the
    row of flat_drive; identity blocks if it has no steps.

    With decay rates gamma (a 1-D sequence, each finite and >= 0), the
    operators of the decay-modified schedule at each rate, stacked on
    one axis: every step takes the detuning Delta - i gamma (under MAGNUS4
    each exponential spans half a substep, decay included). The rates
    are one more stack axis of the same sector_product, whose row loop
    batches them. An input that does not vary over the steps stays size
    1, so under MIDPOINT steps that differ only in phase take one
    exponential per rate and batch.
    """
    config = resolve_config(schedule, config)
    rabi, detuning, phase, v, dt = (x[0] for x in flat_drive(schedule, config))
    if gamma is not None:
        # Decay is the imaginary part of the detuning: one rate a row.
        detuning = detuning - 1j * _decay_rates(gamma)
    return sector_product(rabi, detuning, phase, v, dt)


def evolution_operator(schedule: Schedule, config: IntegratorConfig | None = None) -> np.ndarray:
    """Full 9x9 evolution operator: sector_unitary of evolution_blocks."""
    return sector_unitary(evolution_blocks(schedule, config))


def _sampled(schedule, config, evolve, gamma=0.0) -> PropagationResult:
    """The records at t = 0 (evolving by the identity) and at every sample.
    evolve(operators) maps a stack of 9x9 operators to the evolved states
    or densities and their records, populations and norms, each with its
    own trailing shape.

    Samples fall on every stride-th substep, stride = max(1, substeps //
    samples), and the last of each segment: only at substep ends, after
    the last exponential of a substep (the second of a MAGNUS4 substep).
    Exact mode is samples_per_segment substeps at stride 1. The row of
    flat_drive is walked in time slices of _BATCH_BLOCKS steps: each
    slice's operators are the running product of its steps times the
    last operator before it, and those at the samples are scattered to
    9x9. A sample's operator is the product of every step before it, so
    its bits do not depend on which other samples are taken.
    """
    steps = _segment_substeps(schedule, config, config.samples_per_segment)
    stride = max(1, steps // config.samples_per_segment)
    ends = np.minimum(np.arange(stride, steps + stride, stride), steps)
    _, durations, starts = _segment_drive(schedule)
    times = starts + ends * (durations / steps)[:, 0]
    # The row index of each sample's last exponential, in time order.
    width = 2 if config.integrator == MAGNUS4 else 1
    samples = ((np.arange(len(schedule.segments))[:, None] * steps + ends) * width - 1).reshape(-1)
    rabi, detuning, phase, v, dt = (x[0] for x in flat_drive(schedule, config, steps))
    if gamma > 0.0:
        # Decay is -i gamma per excited atom: the imaginary part of the detuning.
        detuning = detuning - 1j * gamma
    final, *initial = (x[0] for x in evolve(np.eye(DIMENSION)[None]))
    records = [np.empty((1 + times.size,) + x.shape, dtype=x.dtype) for x in initial]
    for record, x in zip(records, initial):
        record[0] = x
    carry = SectorBlocks(np.eye(2)[..., None], np.eye(3)[..., None], np.ones(1))
    for start in range(0, len(phase), _BATCH_BLOCKS):
        span = np.s_[start : start + _BATCH_BLOCKS]
        part = (x[span] if len(x) > 1 else x for x in (rabi, detuning, phase, v, dt))
        operators = running_product(sector_step(*part)) @ carry
        carry = operators.at(np.s_[-1:])
        first, last = np.searchsorted(samples, (start, start + _BATCH_BLOCKS))
        if first < last:
            evolved, *values = evolve(sector_unitary(operators.at(samples[first:last] - start)))
            for record, value in zip(records, values):
                record[1 + first : 1 + last] = value
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
    substep spans half of it, decay included); check_survival checks
    the trace at every sample against the one before it.
    """
    config = resolve_config(schedule, config)
    rho = check_density(initial)

    def evolve(full):
        densities = full @ rho @ full.conj().swapaxes(-1, -2)
        diagonal = np.diagonal(densities, axis1=-2, axis2=-1)
        return densities, diagonal.real, diagonal.sum(axis=-1).real

    result = _sampled(schedule, config, evolve, decay.gamma)
    traces = result.norms
    # Each sample grows from the one before it, the first from itself.
    check_survival(
        traces, np.append(traces[:1], traces[:-1]), "density trace", "t", result.times,
        f"density trace {traces[0]} is lost: the decayed product underflowed to trace 0",
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
