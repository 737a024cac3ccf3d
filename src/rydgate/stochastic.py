"""Seeded control noise, Monte-Carlo averaging, thermal-motion fidelity.

Noise model: each substep of each segment gets independent uniform
relative errors on the drive strength and the detuning,
x -> (1 + eta * r) * x with r drawn from [-1, 1]. Traces are fully
reproducible from the seed; the drive channel is always drawn before
the detuning channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegratorFailureError, InvalidParameterError
from .metrics import compensated_cz_target, gate_fidelity, gate_outcome
from .model import NoiseSpec, ThermalSpec, standard_schedule
from .propagate import SUBSTEPPED, IntegratorConfig, evolution_operator

GENERATOR_NAME = "PCG64"


def sample_noise_trace(spec: NoiseSpec, segment_count: int):
    """Draw multiplier arrays of shape (segment_count, substeps).

    Returns (drive multipliers, detuning multipliers), drawn from a fresh
    generator seeded with spec.seed, so a seed always reproduces its trace.
    """
    if int(segment_count) < 1:
        raise InvalidParameterError(
            f"segment count must be >= 1, got {segment_count}"
        )
    rng = np.random.default_rng(spec.seed)
    shape = (int(segment_count), int(spec.substeps))
    raw_omega = rng.uniform(-1.0, 1.0, size=shape)
    raw_delta = rng.uniform(-1.0, 1.0, size=shape)
    return 1.0 + spec.eta_omega * raw_omega, 1.0 + spec.eta_delta * raw_delta


@dataclass(frozen=True)
class MonteCarloResult:
    """Fidelity statistics over independent noise realizations."""

    mean_fidelity: float
    std_fidelity: float
    trials: int
    fidelities: tuple
    seed: int
    generator: str = GENERATOR_NAME

    def to_json_dict(self) -> dict:
        return {
            "mean_fidelity": float(self.mean_fidelity),
            "std_fidelity": float(self.std_fidelity),
            "trials": int(self.trials),
            "fidelities": [float(f) for f in self.fidelities],
            "seed": int(self.seed),
            "generator": self.generator,
        }


def _nominal_gate(kappa: float, v: float):
    """Noise-free schedule, its operator, and its compensated target."""
    schedule = standard_schedule(kappa, v)
    operator = evolution_operator(schedule)
    nominal = gate_outcome(operator)
    target = compensated_cz_target(nominal.phases["01"], nominal.phases["10"])
    return schedule, operator, target


def monte_carlo_gate_fidelity(
    kappa: float, v: float, spec: NoiseSpec, trials: int
) -> MonteCarloResult:
    """Average gate fidelity of the four-segment schedule under noise.

    Every trial is scored against the noise-free schedule's own
    compensated controlled-phase target. Per-trial seeds derive from
    spec.seed through a seed sequence, so individual trials can be
    replayed in isolation.
    """
    if int(trials) < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    trials = int(trials)
    nominal_schedule, nominal_operator, target = _nominal_gate(kappa, v)

    if spec.eta_omega == 0.0 and spec.eta_delta == 0.0:
        fidelity = gate_fidelity(nominal_operator, target)
        return MonteCarloResult(
            mean_fidelity=fidelity,
            std_fidelity=0.0,
            trials=trials,
            fidelities=(fidelity,) * trials,
            seed=int(spec.seed),
        )

    trial_seeds = np.random.SeedSequence(spec.seed).generate_state(
        trials, dtype=np.uint64
    )
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=spec.substeps)
    fidelities = []
    for index, trial_seed in enumerate(trial_seeds):
        trial_spec = replace(spec, seed=int(trial_seed))
        schedule = replace(nominal_schedule, noise=trial_spec)
        try:
            operator = evolution_operator(schedule, config)
            fidelities.append(gate_fidelity(operator, target))
        except Exception as exc:
            raise IntegratorFailureError(f"noise trial {index} failed: {exc}") from exc
    values = np.array(fidelities)
    return MonteCarloResult(
        mean_fidelity=float(values.mean()),
        std_fidelity=float(values.std()),
        trials=trials,
        fidelities=tuple(float(f) for f in values),
        seed=int(spec.seed),
    )


def thermal_gate_fidelity(
    kappa: float, v: float, thermal: ThermalSpec, substeps: int = 1000
) -> float:
    """Gate fidelity with the interaction modulated by thermal motion.

    When the spec leaves the vibration rate unset it defaults to fifty
    oscillations per segment period. Zero temperature reproduces the
    noise-free fidelity exactly.
    """
    schedule, nominal_operator, target = _nominal_gate(kappa, v)
    if thermal.temperature == 0.0:
        return gate_fidelity(nominal_operator, target)

    rate = thermal.vibration_rate
    if rate is None:
        segment_period = schedule.segments[0].duration
        rate = 50.0 * (2.0 * math.pi / segment_period)
        thermal = replace(thermal, vibration_rate=rate)
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=int(substeps))
    operator = evolution_operator(replace(schedule, thermal=thermal), config)
    return gate_fidelity(operator, target)
