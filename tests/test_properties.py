"""Property tests of the substep integrators, with examples drawn by Hypothesis.

The profile in conftest.py derandomizes the draws and bounds their
number, so every run checks the same examples.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rydgate import propagate
from rydgate.experiments import superposition_state
from rydgate.model import (
    DecaySpec,
    NoiseSpec,
    PulseSegment,
    Schedule,
    ThermalSpec,
    standard_schedule,
    time_optimal_schedule,
)
from rydgate.propagate import (
    MAGNUS4,
    MIDPOINT,
    SUBSTEPPED,
    IntegratorConfig,
    evolution_operator,
    propagate_density,
    sector_product,
    sector_unitary,
)

V = 2.0 * math.pi

finite = dict(allow_nan=False, allow_infinity=False)
segment = st.builds(
    PulseSegment,
    rabi=st.floats(0.0, 8.0, **finite),
    detuning=st.floats(-4.0, 4.0, **finite),
    phase=st.floats(-math.pi, math.pi, **finite),
    duration=st.floats(0.05, 1.0, **finite),
)
plain_schedule = st.builds(
    Schedule,
    segments=st.lists(segment, min_size=1, max_size=3).map(tuple),
    interaction=st.floats(0.0, 10.0, **finite),
)


def magnus4(substeps: int, **fields) -> IntegratorConfig:
    return IntegratorConfig(
        mode=SUBSTEPPED, substeps_per_segment=substeps, integrator=MAGNUS4, **fields
    )


def thermal_schedule(kappa: float, distance: float, temperature: float) -> Schedule:
    """standard_schedule(kappa, V) whose traps vibrate 50 times per segment."""
    base = standard_schedule(kappa, V)
    rate = 50.0 * 2.0 * math.pi / base.segments[0].duration
    thermal = ThermalSpec(
        equilibrium_distance=distance, temperature=temperature, vibration_rate=rate
    )
    return dataclasses.replace(base, thermal=thermal)


thermal_schedules = st.builds(
    thermal_schedule,
    kappa=st.floats(1.0, 2.5, **finite),
    distance=st.floats(3.0, 6.0, **finite),
    temperature=st.floats(1.0, 40.0, **finite),
)
# Strong vibrations near the reference ratio 1.65, whose MAGNUS4 error
# at thousands of substeps stays well above the rounding floor (about
# 3e-12 in the final state), where a ratio of distances says nothing.
strong_thermal_schedules = st.builds(
    thermal_schedule,
    kappa=st.floats(1.4, 2.0, **finite),
    distance=st.floats(3.0, 4.5, **finite),
    temperature=st.floats(10.0, 40.0, **finite),
)


def noisy_schedule(kappa: float, substeps: int, seed: int) -> Schedule:
    noise = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=substeps, seed=seed)
    return dataclasses.replace(standard_schedule(kappa, V), noise=noise)


def random_state(seed: int) -> np.ndarray:
    raw = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, 9))
    return raw / np.linalg.norm(raw)


noisy_schedules = st.builds(
    noisy_schedule,
    kappa=st.floats(1.0, 2.5, **finite),
    substeps=st.integers(1, 30),
    seed=st.integers(0, 2**32),
)
states = st.integers(0, 2**32).map(random_state)


def doubling_distances(schedule: Schedule, psi, substeps: int, doublings: int) -> np.ndarray:
    """Distances between the MAGNUS4 final states at successive doublings."""
    finals = [
        evolution_operator(schedule, magnus4(substeps * 2**k)) @ psi
        for k in range(doublings + 1)
    ]
    return np.linalg.norm(np.diff(finals, axis=0), axis=-1)


class TestMagnus4Order:
    """The error falls 16-fold per doubling at fourth order; at least 12 is asked."""

    @given(substeps=st.integers(100, 600), psi=states)
    def test_time_optimal_schedule(self, substeps, psi):
        distances = doubling_distances(time_optimal_schedule(), psi, substeps, 3)
        assert np.all(distances[:-1] >= 12.0 * distances[1:]), distances

    @given(schedule=strong_thermal_schedules, substeps=st.integers(800, 1200))
    def test_thermal_schedule(self, schedule, substeps):
        # 16 substeps or more per vibration, 50 of which fill a segment.
        # Only the {11, R, rr} sector feels V(t), so the state holds |11>.
        psi = superposition_state()
        distances = doubling_distances(schedule, psi, substeps, 2)
        assert np.all(distances[:-1] >= 12.0 * distances[1:]), distances


class TestMagnus4Exactness:
    @given(schedule=plain_schedule, substeps=st.integers(1, 40))
    def test_constant_drive_matches_the_exact_path(self, schedule, substeps):
        # On a constant drive both exponentials of a substep are
        # exp(-i H h / 2), which multiply to the exact step.
        exact = evolution_operator(schedule)
        stepped = evolution_operator(schedule, magnus4(substeps))
        np.testing.assert_allclose(stepped, exact, rtol=0.0, atol=1e-12)

    @given(schedule=noisy_schedules)
    def test_piecewise_constant_noise_matches_midpoint(self, schedule):
        config = magnus4(1)
        midpoint = evolution_operator(schedule, dataclasses.replace(config, integrator=MIDPOINT))
        stepped = evolution_operator(schedule, config)
        np.testing.assert_allclose(stepped, midpoint, rtol=0.0, atol=1e-12)


modulated_schedules = st.one_of(
    thermal_schedules, noisy_schedules, st.just(time_optimal_schedule())
)


class TestMagnus4Health:
    @given(schedule=modulated_schedules, substeps=st.integers(50, 1500))
    def test_unitarity_defect_of_each_substep(self, schedule, substeps):
        # Asked per substep: over a product the rounding of its steps
        # adds up, about 1e-16 per exponential under either integrator.
        steps = propagate._segment_substeps(schedule, magnus4(substeps))
        drive = propagate._substep_drive(schedule, steps, MAGNUS4)
        u = sector_unitary(sector_product(*drive))
        defect = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(9)).max()
        assert defect <= 1e-13

    @given(
        schedule=modulated_schedules,
        substeps=st.integers(1, 300),
        samples=st.integers(1, 40),
        multiplier=st.floats(0.0, 50.0, **finite),
        psi=states,
    )
    def test_density_trace_never_rises_under_decay(
        self, schedule, substeps, samples, multiplier, psi
    ):
        rho = np.outer(psi, psi.conj())
        config = magnus4(substeps, samples_per_segment=samples)
        decay = DecaySpec.from_multiplier(multiplier)
        traces = propagate_density(schedule, rho, decay, config).norms
        # Within the rounding of a product of unitary steps at multiplier 0.
        assert np.all(np.diff(traces) <= 1e-12), np.diff(traces).max()


class TestBatchSplit:
    @given(
        rows=st.integers(1, 9),
        substeps=st.integers(1, 12),
        budget=st.integers(1, 40),
        gamma=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32),
    )
    def test_a_row_has_the_same_bits_alone_and_split(self, rows, substeps, budget, gamma, seed):
        # MAGNUS4 exponentials of random drives at the Gauss nodes; the
        # batches of a small budget split the rows between them, or
        # slice a row longer than the budget along time.
        rng = np.random.default_rng(seed)
        nodes = (rows, substeps, 2)
        drive = (
            rng.uniform(0.0, 8.0, nodes),
            rng.uniform(-4.0, 4.0, nodes),
            rng.uniform(-math.pi, math.pi, nodes),
            rng.uniform(0.0, 10.0, nodes),
            np.broadcast_to(rng.uniform(0.01, 0.2, (rows, substeps, 1)), nodes),
        )
        steps = [x.reshape(rows, -1) for x in propagate._magnus4_drive(*drive)]
        with mock.patch.object(propagate, "_BATCH_BLOCKS", budget):
            stacked = sector_product(*steps, gamma)
            for row in range(rows):
                alone = sector_product(*(x[row] for x in steps), gamma)
                for block, single in zip(stacked, alone):
                    np.testing.assert_array_equal(block[..., row], single)
