"""Basis definitions, the pulse-schedule data model, and canonical schedules.

Everything runs in the fixed nine-state product basis of two atoms, each
with levels 0, 1, and r, ordered lexicographically with 0 < 1 < r:

    00, 01, 0r, 10, 11, 1r, r0, r1, rr

hbar = 1 throughout; angular frequencies are in rad per time unit. Two
unit conventions are supported: "natural" (time unit 1, the default) and
"mhz" (angular frequencies in rad/us, durations in us). Numeric values
carry through unchanged between the two; the mode is bookkeeping that is
recorded in schedules and output metadata. The dynamics itself is
invariant under rescaling all angular frequencies by s and all durations
by 1/s, which is what makes the shared numbers safe.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, InvalidParameterError

DIMENSION = 9

BASIS_LABELS = ("00", "01", "0r", "10", "11", "1r", "r0", "r1", "rr")
LABEL_TO_INDEX = {label: index for index, label in enumerate(BASIS_LABELS)}

COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
COMPUTATIONAL_INDICES = (0, 1, 3, 4)

# Atoms in the Rydberg level for each basis label, in basis order.
EXCITATION_COUNT = np.array([0, 0, 1, 0, 0, 1, 1, 1, 2])

# Alternating segment phase of the four-segment schedule. The sign is
# calibrated against the controlled-phase target (delta gamma = -pi at
# kappa = 1.65) and locked by regression tests; flipping it detunes the
# controlled phase by roughly 0.6 rad.
ALTERNATE_PHASE = -math.pi / 2.0

# Default interaction strength V in natural units.
V0 = 2.0 * math.pi

# Largest substep count per segment: convergence checks refine up to it,
# and noise traces may not be longer.
MAX_SUBSTEPS = 2**20

# Largest relative noise amplitude eta of either channel.
MAX_NOISE_AMPLITUDE = 0.05

# Temperature in uK at which the thermal vibration amplitude is sqrt(2)
# trap waists (ThermalSpec.amplitude).
REFERENCE_TEMPERATURE = 20.0

# Orientations of the distance ratio in the thermal law, the default first.
EXPONENT_MODES = ("literal", "physical")

STATE_NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-9

_UNIT_ALIASES = {
    "natural": "natural",
    "mhz": "mhz",
    "megahertz": "mhz",
}


def normalize_units(mode: str) -> str:
    """Map a unit-mode spelling to its canonical form ("natural" or "mhz")."""
    try:
        return _UNIT_ALIASES[str(mode).lower()]
    except KeyError:
        raise ConfigError(f"unknown unit mode {mode!r}; expected 'natural' or 'mhz'") from None


def basis_index(label: str) -> int:
    try:
        return LABEL_TO_INDEX[label]
    except KeyError:
        raise InvalidParameterError(f"unknown basis label {label!r}") from None


def basis_label(index: int) -> str:
    return BASIS_LABELS[check_index("basis index", index, DIMENSION)]


def basis_state(label: str | int) -> np.ndarray:
    """Unit state vector for a basis label (or raw index)."""
    if isinstance(label, str):
        index = basis_index(label)
    else:
        index = check_index("basis index", label, DIMENSION)
    state = np.zeros(DIMENSION, dtype=complex)
    state[index] = 1.0
    return state


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """Raise InvalidParameterError naming the count unless it is an
    integer (a numbers.Integral other than bool) in [low, high]: int()
    would truncate a count of 2.7 to 2, and True would count as 1."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise InvalidParameterError(f"{name} must {bound}, got {value}")


def check_number(name: str, value) -> None:
    """Raise InvalidParameterError naming the value unless it is a real
    number (a numbers.Real other than bool): True would count as 1.0.
    A float passes at once, and an int without the numbers.Real lookup,
    which costs a Python-level ABC check on every segment field. A
    number that float() cannot take (an int of 10^400, say) would raise
    OverflowError in the arithmetic, so it is rejected here."""
    if type(value) is float:
        return
    if type(value) is not int and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise InvalidParameterError(
            f"{name} must be a real number within the float range, got {value!r}"
        ) from None


def check_finite_number(name: str, value, relation: str = "") -> None:
    """check_number, then raise InvalidParameterError naming the value
    unless it is finite, and > 0 or >= 0 for a relation of ">" or ">=":
    a NaN or an infinity would run on to NaN results."""
    check_number(name, value)
    allowed = not relation or value > 0.0 or (relation == ">=" and value == 0.0)
    if not (math.isfinite(value) and allowed):
        bound = f" and {relation} 0" if relation else ""
        raise InvalidParameterError(f"{name} must be finite{bound}, got {value}")


def check_index(name: str, value, size: int) -> int:
    """The index value as an int, after check_count in [0, size): int()
    would take 4.9 as index 4 and True as index 1."""
    check_count(name, value, 0, size - 1)
    return int(value)


def check_state(amplitudes) -> np.ndarray:
    """Validate and return a state vector as a complex array of length 9."""
    state = np.asarray(amplitudes, dtype=complex)
    if state.shape != (DIMENSION,):
        raise InvalidParameterError(f"state vector must have shape (9,), got {state.shape}")
    norm = float(np.linalg.norm(state))
    if norm > 1.0 + STATE_NORM_TOL:
        raise InvalidParameterError(f"state norm {norm} exceeds 1 + {STATE_NORM_TOL}")
    return state


def check_density(matrix) -> np.ndarray:
    """Validate a density matrix: Hermitian, trace <= 1, positive semidefinite."""
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (DIMENSION, DIMENSION):
        raise InvalidParameterError(f"density matrix must have shape (9, 9), got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvalidParameterError("density matrix is not Hermitian within 1e-12")
    trace = float(rho.trace().real)
    if trace > 1.0 + STATE_NORM_TOL:
        raise InvalidParameterError(f"density trace {trace} exceeds 1 + {STATE_NORM_TOL}")
    smallest = float(np.linalg.eigvalsh(rho).min())
    if smallest < -PSD_TOL:
        raise InvalidParameterError(f"density matrix has eigenvalue {smallest} < -{PSD_TOL}")
    return rho


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant drive interval.

    rabi is the angular Rabi frequency (>= 0), detuning the angular
    detuning of the Rydberg level, phase the drive phase in rad, and
    duration the segment length in time units (> 0).
    """

    rabi: float
    detuning: float
    phase: float
    duration: float

    def __post_init__(self):
        for name in SEGMENT_FIELDS:
            check_finite_number(f"segment {name}", getattr(self, name))
        if not self.rabi >= 0.0:
            raise InvalidParameterError(f"segment rabi must be >= 0, got {self.rabi}")
        if not self.duration > 0.0:
            raise InvalidParameterError(f"segment duration must be > 0, got {self.duration}")


# The fields of a segment in order, which are its JSON keys as well.
SEGMENT_FIELDS = tuple(field.name for field in fields(PulseSegment))


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative control noise: rabi' = (1 + eta_omega R) rabi and
    detuning' = (1 + eta_delta R) detuning with R drawn uniformly from
    [-1, 1], independently per substep and per channel."""

    eta_omega: float = 0.0
    eta_delta: float = 0.0
    substeps: int = 100
    seed: int = 12345

    def __post_init__(self):
        cap = MAX_NOISE_AMPLITUDE
        for name, value in (("eta_omega", self.eta_omega), ("eta_delta", self.eta_delta)):
            check_number(name, value)
            if not 0.0 <= value <= cap:
                raise InvalidParameterError(f"{name} must lie in [0, {cap}], got {value}")
        check_count("noise substeps", self.substeps, 1, MAX_SUBSTEPS)
        check_count("noise seed", self.seed, 0)


def sample_noise_trace(spec: NoiseSpec, segment_count: int):
    """Draw multiplier arrays of shape (segment_count, substeps).

    Returns (drive multipliers, detuning multipliers), drawn from a fresh
    generator seeded with spec.seed, so a seed always reproduces its trace.
    """
    check_count("segment_count", segment_count, 1)
    rng = np.random.default_rng(spec.seed)
    shape = (segment_count, spec.substeps)
    raw_omega = rng.uniform(-1.0, 1.0, size=shape)
    raw_delta = rng.uniform(-1.0, 1.0, size=shape)
    return 1.0 + spec.eta_omega * raw_omega, 1.0 + spec.eta_delta * raw_delta


def noisy_drive(schedule: Schedule, spec: NoiseSpec):
    """Drive strength and detuning of each noise substep of the schedule.

    Returns arrays of shape (segments, spec.substeps): each segment's
    value x times the multipliers 1 + eta * r of spec's noise trace.
    """
    omega, delta = sample_noise_trace(spec, len(schedule.segments))
    rabi = np.array([s.rabi for s in schedule.segments])[:, None] * omega
    detuning = np.array([s.detuning for s in schedule.segments])[:, None] * delta
    return rabi, detuning


@dataclass(frozen=True)
class ThermalSpec:
    """Deterministic interatomic-distance vibration.

    equilibrium_distance L is the mean distance in units of the trap
    waist; temperature is in uK. The instantaneous distance is D(t) =
    L + b sin(omega t), in the same units, with vibration amplitude
    b = sqrt(2 * temperature / REFERENCE_TEMPERATURE). When
    vibration_rate is None the consumer derives it from the schedule
    (50 oscillations per segment). exponent_mode selects how the
    interaction is rescaled; see `hamiltonian.thermal_interaction`.
    """

    equilibrium_distance: float
    temperature: float
    vibration_rate: float | None = None
    exponent_mode: str = EXPONENT_MODES[0]

    def __post_init__(self):
        # A non-finite distance or rate would make the fidelity NaN.
        check_finite_number("equilibrium_distance", self.equilibrium_distance, ">")
        check_finite_number("temperature", self.temperature, ">=")
        if self.vibration_rate is not None:
            check_finite_number("vibration_rate", self.vibration_rate)
        if self.exponent_mode not in EXPONENT_MODES:
            expected = " or ".join(map(repr, EXPONENT_MODES))
            raise ConfigError(f"unknown exponent mode {self.exponent_mode!r}; expected {expected}")

    @property
    def amplitude(self) -> float:
        """Vibration amplitude b = sqrt(2 T / REFERENCE_TEMPERATURE), in waist units."""
        return math.sqrt(2.0 * self.temperature / REFERENCE_TEMPERATURE)


# Base amplitude-decay rate of the Rydberg level, 2 pi x 10 kHz in rad/us.
BASE_DECAY_RATE = 2.0 * math.pi * 0.01


@dataclass(frozen=True)
class DecaySpec:
    """Amplitude decay of the Rydberg level, applied per excited atom.

    gamma is the decay rate (finite, >= 0); from_multiplier(m) gives
    gamma = m * BASE_DECAY_RATE.
    """

    gamma: float

    def __post_init__(self):
        check_finite_number("decay rate", self.gamma, ">=")

    @classmethod
    def from_multiplier(cls, multiplier: float) -> "DecaySpec":
        if not multiplier >= 0.0:
            raise InvalidParameterError(f"decay multiplier must be >= 0, got {multiplier}")
        return cls(gamma=multiplier * BASE_DECAY_RATE)


@dataclass(frozen=True)
class PhaseDriveSpec:
    """Continuous drive-phase modulation phi(t) = amplitude * cos(angular_rate * t - offset).

    The phase replaces the segment phase at every substep midpoint; the
    drive strength stays the segment's own rabi.
    """

    amplitude: float
    angular_rate: float
    offset: float

    def __post_init__(self):
        for name in ("amplitude", "angular_rate", "offset"):
            check_finite_number(f"phase drive {name}", getattr(self, name))

    def phase_at(self, t):
        """Drive phase at time t, a scalar or an array of times."""
        return self.amplitude * np.cos(self.angular_rate * t - self.offset)


@dataclass(frozen=True)
class Schedule:
    """An ordered pulse sequence with a shared interaction strength.

    segments are applied in order with instantaneous phase switching at
    the boundaries. Optional modulations (noise, thermal, phase_drive)
    make the Hamiltonian time dependent inside segments; plain schedules
    admit exact per-segment propagation.
    """

    segments: tuple[PulseSegment, ...]
    interaction: float
    units: str = "natural"
    noise: NoiseSpec | None = None
    thermal: ThermalSpec | None = None
    phase_drive: PhaseDriveSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "units", normalize_units(self.units))
        check_finite_number("interaction", self.interaction, ">=")

    @property
    def total_duration(self) -> float:
        return float(sum(segment.duration for segment in self.segments))

    @property
    def has_modulations(self) -> bool:
        return self.noise is not None or self.thermal is not None or self.phase_drive is not None

    def rescaled(self, factor: float) -> "Schedule":
        """Scale all angular frequencies by factor and durations by 1/factor.

        Only plain schedules rescale; modulations carry their own rates
        and are rejected to avoid silently inconsistent scaling.
        """
        if not factor > 0.0:
            raise InvalidParameterError(f"rescale factor must be > 0, got {factor}")
        if self.has_modulations:
            raise InvalidParameterError("cannot rescale a schedule with modulations")
        segments = tuple(
            PulseSegment(
                rabi=segment.rabi * factor,
                detuning=segment.detuning * factor,
                phase=segment.phase,
                duration=segment.duration / factor,
            )
            for segment in self.segments
        )
        return replace(self, segments=segments, interaction=self.interaction * factor)

    def to_json_dict(self) -> dict:
        return {
            "segments": [
                {name: getattr(segment, name) for name in SEGMENT_FIELDS}
                for segment in self.segments
            ],
            "interaction": self.interaction,
            "units": self.units,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, document: str | dict) -> "Schedule":
        if isinstance(document, str):
            try:
                data = json.loads(document)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"schedule document is not valid JSON: {exc}") from exc
        else:
            data = document
        if not isinstance(data, dict):
            raise ConfigError("schedule document must be a JSON object")
        try:
            raw_segments = data["segments"]
            interaction = float(data["interaction"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed schedule document: {exc}") from exc
        if not isinstance(raw_segments, list):
            raise ConfigError(
                f"schedule segments must be a JSON list, got {type(raw_segments).__name__}"
            )
        segments = []
        for raw in raw_segments:
            try:
                values = {name: float(raw[name]) for name in SEGMENT_FIELDS}
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed schedule segment: {exc}") from exc
            segments.append(PulseSegment(**values))
        return cls(
            segments=tuple(segments),
            interaction=interaction,
            units=data.get("units", cls.units),
        )


def cyclic_segment_duration(kappa: float, v: float) -> float:
    """Duration T with sqrt(4 Omega^2 + V^2/4) T = 2 pi at Omega = kappa V.

    The duration is positive and finite, so Omega is finite too.
    """
    check_number("kappa", kappa)
    check_number("interaction", v)
    if not kappa > 0.0:
        raise InvalidParameterError(f"kappa must be > 0, got {kappa}")
    if not v > 0.0:
        raise InvalidParameterError(f"interaction must be > 0, got {v}")
    omega = kappa * v
    try:
        duration = 2.0 * math.pi / math.sqrt(4.0 * omega**2 + v**2 / 4.0)
    except (OverflowError, ZeroDivisionError):
        duration = 0.0
    if not duration > 0.0:
        raise InvalidParameterError(
            f"kappa {kappa} at interaction {v} gives no positive finite segment duration"
        )
    return duration


def standard_phases() -> tuple:
    """Drive phases of the four standard segments: 0, ALTERNATE_PHASE, 0, ALTERNATE_PHASE."""
    return (0.0, ALTERNATE_PHASE, 0.0, ALTERNATE_PHASE)


def standard_schedule(kappa: float, v: float, units: str = Schedule.units) -> Schedule:
    """Four-segment controlled-phase schedule.

    All segments share Omega = kappa * V, Delta = -V/2, and the cyclic
    duration T = 2 pi / sqrt(4 Omega^2 + V^2/4); the drive phase
    alternates between 0 and ALTERNATE_PHASE (-pi/2). At kappa = 1.65
    the sequence realizes a controlled-phase of -pi up to single-atom
    phases.
    """
    duration = cyclic_segment_duration(kappa, v)
    omega = kappa * v
    detuning = -v / 2.0
    segments = tuple(
        PulseSegment(rabi=omega, detuning=detuning, phase=phase, duration=duration)
        for phase in standard_phases()
    )
    return Schedule(segments=segments, interaction=v, units=units)


# Published waveform constants of the time-optimal comparison gate.
TIME_OPTIMAL_RABI = 2.0 * math.pi * 5.0
TIME_OPTIMAL_AMPLITUDE = 2.0 * math.pi * 0.1122
TIME_OPTIMAL_RATE_RATIO = 1.4031
TIME_OPTIMAL_OFFSET = -0.7318
TIME_OPTIMAL_INTERACTION = 2.0 * math.pi * 450.0


def time_optimal_schedule() -> Schedule:
    """Single-segment comparison gate with a cosine-modulated drive phase.

    Runs in mhz units: Omega = 2 pi x 5 rad/us, duration 2.43 pi / Omega,
    interaction 2 pi x 450 rad/us, and phase(t) = A cos(w t - phi0) with
    A = 2 pi x 0.1122, w = 1.4031 Omega, phi0 = -0.7318.
    """
    rabi = TIME_OPTIMAL_RABI
    drive = PhaseDriveSpec(
        amplitude=TIME_OPTIMAL_AMPLITUDE,
        angular_rate=TIME_OPTIMAL_RATE_RATIO * rabi,
        offset=TIME_OPTIMAL_OFFSET,
    )
    segment = PulseSegment(
        rabi=rabi,
        detuning=0.0,
        phase=0.0,
        duration=2.43 * math.pi / rabi,
    )
    return Schedule(
        segments=(segment,),
        interaction=TIME_OPTIMAL_INTERACTION,
        units="mhz",
        phase_drive=drive,
    )
