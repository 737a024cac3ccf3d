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
from scipy.linalg import expm

from rydgate import propagate
from rydgate.experiments import superposition_state
from rydgate.hamiltonian import apply_decay, build_full, drive_hamiltonian
from rydgate.model import (
    EXCITATION_COUNT,
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
    evolution_blocks,
    evolution_operator,
    propagate_density,
    sector_product,
    sector_step,
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
# Any valid plain schedule, over the whole range of finite floats.
valid_schedule = st.builds(
    Schedule,
    segments=st.lists(
        st.builds(
            PulseSegment,
            rabi=st.floats(min_value=0.0, **finite),
            detuning=st.floats(**finite),
            phase=st.floats(**finite),
            duration=st.floats(min_value=0.0, exclude_min=True, **finite),
        ),
        max_size=4,
    ).map(tuple),
    interaction=st.floats(min_value=0.0, **finite),
    units=st.sampled_from(["natural", "mhz", "MHz", "megahertz"]),
)
# A drive (rabi, detuning, phase, v) and a decay rate.
drives = st.tuples(
    st.floats(0.0, 8.0, **finite),
    st.floats(-4.0, 4.0, **finite),
    st.floats(-math.pi, math.pi, **finite),
    st.floats(0.0, 10.0, **finite),
)
rates = st.floats(0.0, 5.0, **finite)


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
        drive, _ = propagate._substep_drive(schedule, steps, MAGNUS4)
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
        if gamma:
            steps[1] = steps[1] - 1j * gamma
        with mock.patch.object(propagate, "_BATCH_BLOCKS", budget):
            stacked = sector_product(*steps)
            for row in range(rows):
                alone = sector_product(*(x[row] for x in steps))
                for block, single in zip(stacked, alone):
                    np.testing.assert_array_equal(block[..., row], single)


class TestDecayAsComplexDetuning:
    """Decay gamma is the imaginary part of the detuning, Delta - i gamma."""

    @given(drive=drives, gamma=rates)
    def test_full_operator_is_apply_decay(self, drive, gamma):
        rabi, detuning, phase, v = drive
        decayed = drive_hamiltonian(rabi, detuning - 1j * gamma, phase, v)
        expected = apply_decay(drive_hamiltonian(*drive), DecaySpec(gamma))
        np.testing.assert_array_equal(decayed, expected)

    @given(drive=drives, gamma=rates, dt=st.floats(0.0, 2.0, **finite))
    def test_step_matches_expm_of_the_decayed_operator(self, drive, gamma, dt):
        rabi, detuning, phase, v = drive
        actual = sector_unitary(sector_step(rabi, detuning - 1j * gamma, phase, v, dt))
        generator = apply_decay(drive_hamiltonian(*drive), DecaySpec(gamma))
        np.testing.assert_allclose(actual, expm(-1j * generator * dt), rtol=0.0, atol=1e-12)

    @given(rows=st.integers(1, 9), steps=st.integers(1, 6), seed=st.integers(0, 2**32))
    def test_a_rate_per_row_gives_each_row_its_bits_alone(self, rows, steps, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, steps)
        rabi, phase = rng.uniform(0.0, 8.0, shape), rng.uniform(-math.pi, math.pi, shape)
        v, dt = rng.uniform(0.0, 10.0, shape), rng.uniform(0.01, 2.0, shape)
        detuning = rng.uniform(-4.0, 4.0, shape) - 1j * rng.uniform(0.0, 5.0, (rows, 1))
        drive = (rabi, detuning, phase, v, dt)
        stacked = sector_product(*drive)
        for row in range(rows):
            alone = sector_product(*(x[row] for x in drive))
            for block, single in zip(stacked, alone):
                np.testing.assert_array_equal(block[..., row], single)


class TestScheduleProperties:
    @given(schedule=valid_schedule)
    def test_json_round_trip(self, schedule):
        assert Schedule.from_json(schedule.to_json()) == schedule

    @given(schedule=plain_schedule, factor=st.floats(0.01, 100.0, **finite))
    def test_rescaling_leaves_the_evolution_unchanged(self, schedule, factor):
        expected = evolution_blocks(schedule)
        for actual, block in zip(evolution_blocks(schedule.rescaled(factor)), expected):
            np.testing.assert_allclose(actual, block, rtol=0.0, atol=1e-12)


# The invariant subspaces of the 9 states: {00}, {01, 0r}, {10, r0}, and
# {11, 1r, r1, rr}, which holds the triple block and the antisymmetric state.
SECTORS = ((0,), (1, 2), (3, 6), (4, 5, 7, 8))
OUTSIDE_SECTORS = np.ones((9, 9), dtype=bool)
for sector in SECTORS:
    OUTSIDE_SECTORS[np.ix_(sector, sector)] = False
durations = st.floats(0.0, 2.0, **finite)


class TestSectorSymmetries:
    @given(drive=drives, dt=durations)
    def test_the_step_leaves_every_sector_invariant(self, drive, dt):
        step = sector_unitary(sector_step(*drive, dt))
        assert np.all(step[OUTSIDE_SECTORS] == 0.0)
        rabi, detuning, phase, v = drive
        full = expm(-1j * dt * build_full(PulseSegment(rabi, detuning, phase, 1.0), v))
        assert np.abs(full[OUTSIDE_SECTORS]).max() <= 1e-15

    @given(drive=drives, shift=st.floats(-math.pi, math.pi, **finite), dt=durations)
    def test_a_phase_shift_is_a_single_atom_gauge(self, drive, shift, dt):
        # U(phase + c) = D(c) U(phase) D(c)^dagger, D(c) = diag(e^{-i c n})
        # for the excitation count n of each state.
        rabi, detuning, phase, v = drive
        gauge = np.exp(-1j * shift * EXCITATION_COUNT)
        shifted = sector_unitary(sector_step(rabi, detuning, phase + shift, v, dt))
        step = sector_unitary(sector_step(*drive, dt))
        expected = gauge[:, None] * step * gauge.conj()[None, :]
        np.testing.assert_allclose(shifted, expected, rtol=0.0, atol=1e-13)
