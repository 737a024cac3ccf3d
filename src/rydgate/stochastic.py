"""Seeded control noise, Monte-Carlo averaging, thermal-motion fidelity.

Noise model: each substep of each segment gets independent uniform
relative errors on the drive strength and the detuning,
x -> (1 + eta * r) * x with r drawn from [-1, 1]. Traces are fully
reproducible from the seed; the drive channel is always drawn before
the detuning channel.

The draw itself lives beside `NoiseSpec` in `model`: `noise_draw` is
the one draw of a trace's raw values, both channels in one call,
`sample_noise_trace` and `noisy_drive` take their multipliers from it,
and `sample_noise_trace` is bound here too.

Fidelities are scored in sector form, with no 9x9 operator: each
computational state returns with a phase, so `metrics.diagonal_fidelity`
scores the computational diagonal against the diagonal of the noise-free
schedule's compensated target. Monte-Carlo trials are the rows of
`propagate.row_products`: each trial's noisy drive over (segments x
substeps) is one row, beside the phase and step lengths of the
schedule's `propagate.flat_drive`. A batch holds as many whole trials
as fit in its step budget (20 trials of 4 x 100 substeps), so a
trial's fidelity is the same in any batch. Each trial's raw draws come
from its own seed, and `noisy_drive` scales the stacked draws of a
batch once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import compensated_cz_target, diagonal_fidelity, diagonal_summary
from .model import (
    NoiseSpec,
    ThermalSpec,
    check_count,
    noise_draw,
    noisy_drive,
    standard_schedule,
)
# Bound here too: callers, perfbench/tracer.py among them, look the draw up here.
from .model import sample_noise_trace  # noqa: F401
from .propagate import (
    SUBSTEPPED,
    IntegratorConfig,
    computational_diagonal,
    evolution_blocks,
    flat_drive,
    row_products,
    standard_diagonal,
)

GENERATOR_NAME = "PCG64"

# Largest trial count of one Monte-Carlo average. It keeps the per-trial
# seeds and fidelities within a few tens of MB.
MAX_TRIALS = 2**20


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
    """Noise-free schedule, its computational diagonal, and the diagonal of its
    compensated target; raises UndefinedPhaseError if a state does not return."""
    schedule = standard_schedule(kappa, v)
    segment = schedule.segments[0]
    amplitudes = standard_diagonal(segment.rabi, v, segment.duration)
    phases = diagonal_summary(amplitudes)["phases"]
    return schedule, amplitudes, np.diagonal(compensated_cz_target(phases[1], phases[2]))


def monte_carlo_gate_fidelity(
    kappa: float, v: float, spec: NoiseSpec, trials: int
) -> MonteCarloResult:
    """Average gate fidelity of the four-segment schedule under noise.

    Every trial is scored against the noise-free schedule's own
    compensated controlled-phase target. Per-trial seeds derive from
    spec.seed through a seed sequence, so individual trials can be
    replayed in isolation. Trials run as the rows of
    propagate.row_products; they may number 1 to MAX_TRIALS.
    """
    check_count("trials", trials, 1, MAX_TRIALS)
    return _monte_carlo(_nominal_gate(kappa, v), spec, int(trials))


def _monte_carlo(nominal_gate, spec: NoiseSpec, trials: int) -> MonteCarloResult:
    """monte_carlo_gate_fidelity from the _nominal_gate it scores against,
    so that a map of noise cells scores the nominal gate once."""
    schedule, nominal, target = nominal_gate
    if spec.eta_omega == 0.0 and spec.eta_delta == 0.0:
        fidelity = float(diagonal_fidelity(nominal, target))
        return MonteCarloResult(
            mean_fidelity=fidelity,
            std_fidelity=0.0,
            trials=trials,
            fidelities=(fidelity,) * trials,
            seed=int(spec.seed),
        )

    seeds = np.random.SeedSequence(spec.seed).generate_state(trials, dtype=np.uint64)
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=int(spec.substeps))
    _, _, phase, v, dt = flat_drive(schedule, config)
    shape = (len(schedule.segments), config.substeps_per_segment)

    def drive(batch):
        # Each trial's trace is drawn whole from its own seed, one batch at a time.
        draws = np.stack([noise_draw(int(seed), *shape) for seed in seeds[batch]])
        rabi, detuning = (x.reshape(len(draws), -1) for x in noisy_drive(schedule, spec, draws))
        return rabi, detuning, phase, v, dt

    products = row_products(drive, trials, phase.shape[1])
    values = np.concatenate(
        [diagonal_fidelity(computational_diagonal(blocks), target) for blocks in products]
    )
    return MonteCarloResult(
        mean_fidelity=float(values.mean()),
        std_fidelity=float(values.std()),
        trials=trials,
        fidelities=tuple(float(f) for f in values),
        seed=int(spec.seed),
    )


def thermal_gate_fidelity(
    kappa: float,
    v: float,
    thermal: ThermalSpec,
    substeps: int = IntegratorConfig.substeps_per_segment,
) -> float:
    """Gate fidelity with the interaction modulated by thermal motion.

    When the spec leaves the vibration rate unset it defaults to fifty
    oscillations per segment period. Zero temperature reproduces the
    noise-free fidelity exactly.

    Few substeps alias the vibration, which each samples at its midpoint:
    F(8, 20 uK) reads 0.9993108 (the vibration-free value: every midpoint
    on a zero of the sine) at 10 and 50 substeps per segment, 0.87937 at
    20 and 100 (every midpoint on a turning point), 0.963161 at 200 and
    0.9626411 at 1,000 and 4,000. No count is rejected.
    """
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=substeps)
    return _thermal(_nominal_gate(kappa, v), thermal, config)


def _thermal(nominal_gate, thermal: ThermalSpec, config: IntegratorConfig) -> float:
    """thermal_gate_fidelity from the _nominal_gate it scores against and
    its substepped config, so that a map of thermal cells scores the
    nominal gate once."""
    schedule, amplitudes, target = nominal_gate
    if thermal.temperature != 0.0:
        if thermal.vibration_rate is None:
            period = schedule.segments[0].duration
            thermal = replace(thermal, vibration_rate=50.0 * (2.0 * math.pi / period))
        blocks = evolution_blocks(replace(schedule, thermal=thermal), config)
        amplitudes = computational_diagonal(blocks)
    return float(diagonal_fidelity(amplitudes, target))
