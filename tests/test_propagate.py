"""Tests for the exact and substepped evolution engines."""

import dataclasses
import functools
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from rydgate.errors import IntegratorFailureError, InvalidParameterError, ModeError
from rydgate.model import (
    BASE_DECAY_RATE,
    EXCITATION_COUNT,
    DecaySpec,
    NoiseSpec,
    PulseSegment,
    Schedule,
    ThermalSpec,
    basis_state,
    standard_schedule,
    time_optimal_schedule,
)
from rydgate import experiments, geometry, propagate, stochastic
from rydgate.model import COMPUTATIONAL_INDICES, MAX_SUBSTEPS, V0
from rydgate.hamiltonian import apply_decay, drive_hamiltonian, gauged_blocks
from rydgate.propagate import (
    EXACT,
    MAGNUS4,
    MIDPOINT,
    NAN_STEP,
    SUBSTEPPED,
    ConvergenceReport,
    IntegratorConfig,
    SectorBlocks,
    computational_diagonal,
    convergence_check,
    evolution_blocks,
    evolution_operator,
    ordered_product,
    propagate_basis,
    propagate_density,
    propagate_state,
    resolve_config,
    sector_product,
    sector_step,
    sector_unitary,
)

V = 2.0 * math.pi


def random_schedule(rng, max_segments=4) -> Schedule:
    segments = tuple(
        PulseSegment(
            rabi=float(rng.uniform(0.1, 8.0)),
            detuning=float(rng.uniform(-4.0, 4.0)),
            phase=float(rng.uniform(-math.pi, math.pi)),
            duration=float(rng.uniform(0.05, 1.0)),
        )
        for _ in range(rng.integers(1, max_segments + 1))
    )
    return Schedule(segments=segments, interaction=float(rng.uniform(0.0, 10.0)))


def random_state(rng) -> np.ndarray:
    raw = rng.normal(size=9) + 1j * rng.normal(size=9)
    return raw / np.linalg.norm(raw)


def engine_schedule(kind: str, rng) -> Schedule:
    """One schedule per propagation path: plain, noisy, thermal, phase-driven."""
    base = standard_schedule(1.65, V)
    if kind == "plain":
        return random_schedule(rng)
    if kind == "noisy":
        noise = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=40, seed=7)
        return dataclasses.replace(base, noise=noise)
    if kind == "thermal":
        rate = 50.0 * 2.0 * math.pi / base.segments[0].duration
        thermal = ThermalSpec(equilibrium_distance=4.0, temperature=20.0, vibration_rate=rate)
        return dataclasses.replace(base, thermal=thermal)
    return time_optimal_schedule()


ENGINE_KINDS = ("plain", "noisy", "thermal", "phase-driven")

# (substeps, samples per segment, step budget of a batch) at the edges
# of the sample intervals: a stride that divides the substeps, one that
# does not (a padded last interval), more samples than substeps, one
# sample per segment, and rows one step shorter and longer than the
# budget, which must then slice a row or split the sampled operators.
SAMPLE_EDGES = [
    pytest.param(12, 4, None, id="stride-divides"),
    pytest.param(13, 4, None, id="padded-last-interval"),
    pytest.param(6, 9, None, id="samples-exceed-substeps"),
    pytest.param(7, 1, None, id="one-sample"),
    pytest.param(15, 1, 16, id="row-below-budget"),
    pytest.param(17, 1, 16, id="row-above-budget"),
    pytest.param(17, 17, 16, id="samples-above-budget"),
]


def modulated_schedule(kind: str, substeps: int) -> Schedule:
    """A noisy, thermal or phase-driven schedule; noise uses `substeps`."""
    if kind == "noisy":
        noise = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=substeps, seed=11)
        return dataclasses.replace(standard_schedule(1.65, V), noise=noise)
    return engine_schedule(kind, None)


def kron_hamiltonian(rabi, detuning, phase, v) -> np.ndarray:
    single = np.zeros((3, 3), dtype=complex)
    single[1, 2] = 0.5 * rabi * np.exp(1j * phase)
    single[2, 1] = np.conj(single[1, 2])
    single[2, 2] = detuning
    identity = np.eye(3, dtype=complex)
    full = np.kron(single, identity) + np.kron(identity, single)
    full[8, 8] += v
    return full


# The Gauss nodes of a substep, as fractions of its length, and the
# weights 1/4 +- sqrt(3)/6 of the fourth-order commutator-free Magnus rule.
GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
MAGNUS4_WEIGHTS = (0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0)


def oracle_step_operators(
    schedule: Schedule, substeps: int, gamma: float = 0.0, integrator=MIDPOINT
):
    """Scalar substep rule, one substep at a time: the modulations are
    evaluated from their closed forms, H is built with kron, and every
    exponential is a scipy expm of the (decay-modified) H. MIDPOINT takes
    exp(-i H(t_mid) dt); MAGNUS4 takes exp(-i dt (a2 H1 + a1 H2))
    exp(-i dt (a1 H1 + a2 H2)) for H at the Gauss nodes. Yields (t, k,
    step) with t the end of the substep and k its index in the segment."""
    from rydgate.stochastic import sample_noise_trace

    noise = schedule.noise
    multipliers = sample_noise_trace(noise, len(schedule.segments)) if noise else None
    t_start = 0.0
    for index, segment in enumerate(schedule.segments):
        dt = segment.duration / substeps
        for k in range(substeps):

            def hamiltonian(t):
                rabi, detuning = segment.rabi, segment.detuning
                phase, v = segment.phase, schedule.interaction
                if multipliers is not None:
                    rabi *= multipliers[0][index, k]
                    detuning *= multipliers[1][index, k]
                if schedule.phase_drive is not None:
                    drive = schedule.phase_drive
                    phase = drive.amplitude * math.cos(drive.angular_rate * t - drive.offset)
                if schedule.thermal is not None:
                    spec = schedule.thermal
                    length = spec.equilibrium_distance * spec.waist
                    distance = length + spec.amplitude * spec.waist * math.sin(
                        spec.vibration_rate * t
                    )
                    v = v * (distance / length) ** 6
                h = kron_hamiltonian(rabi, detuning, phase, v)
                return h - 1j * gamma * np.diag(EXCITATION_COUNT.astype(float))

            if integrator == MIDPOINT:
                step = expm(-1j * hamiltonian(t_start + (k + 0.5) * dt) * dt)
            else:
                h1, h2 = (hamiltonian(t_start + (k + node) * dt) for node in GAUSS_NODES)
                a1, a2 = MAGNUS4_WEIGHTS
                step = expm(-1j * dt * (a2 * h1 + a1 * h2)) @ expm(-1j * dt * (a1 * h1 + a2 * h2))
            yield t_start + (k + 1) * dt, k, step
        t_start += segment.duration


def oracle_history(
    schedule: Schedule, substeps: int, samples: int, initial, gamma=0.0, integrator=MIDPOINT
):
    """Times, populations and norms (or traces) of the oracle steps applied
    one at a time to a state or a density, at the engine's sample rule:
    every stride-th substep and the last of each segment, with
    stride = max(1, substeps // samples), after the initial record."""
    stride = max(1, substeps // samples)
    current = initial
    records = []

    def record(t):
        if current.ndim == 1:
            records.append((t, np.abs(current) ** 2, np.linalg.norm(current)))
        else:
            records.append((t, np.real(np.diag(current)), np.trace(current).real))

    record(0.0)
    for t, k, step in oracle_step_operators(schedule, substeps, gamma, integrator):
        if current.ndim == 1:
            current = step @ current
        else:
            current = step @ current @ step.conj().T
        if (k + 1) % stride == 0 or k == substeps - 1:
            record(t)
    times, populations, norms = (np.array(column) for column in zip(*records))
    return times, populations, norms, current


def assert_history_matches_oracle(result, oracle):
    times, populations, norms, final = oracle
    np.testing.assert_allclose(result.times, times, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(result.populations, populations, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(result.norms, norms, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(result.final_state, final, rtol=0.0, atol=1e-12)


class TestConfig:
    def test_defaults(self):
        config = IntegratorConfig()
        assert config.mode == EXACT
        assert config.substeps_per_segment == 1000
        assert config.convergence_tolerance == 1e-8
        assert config.samples_per_segment == 100

    def test_rejects_unknown_mode(self):
        with pytest.raises(ModeError):
            IntegratorConfig(mode="adaptive")

    @pytest.mark.parametrize("field", ["substeps_per_segment", "samples_per_segment"])
    def test_rejects_nonpositive_counts(self, field):
        with pytest.raises(InvalidParameterError):
            IntegratorConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["substeps_per_segment", "samples_per_segment"])
    def test_rejects_counts_above_limit(self, field):
        IntegratorConfig(**{field: MAX_SUBSTEPS})
        for count in (MAX_SUBSTEPS + 1, 10**15):
            with pytest.raises(InvalidParameterError, match=str(MAX_SUBSTEPS)):
                IntegratorConfig(**{field: count})

    @pytest.mark.parametrize("field", ["substeps_per_segment", "samples_per_segment"])
    @pytest.mark.parametrize(
        "count", ["many", None, 2.7, 2.0, np.float64(3.0), "3", True, False, 1 + 0j]
    )
    def test_rejects_counts_that_are_not_integers(self, field, count):
        # int(count) raised ValueError on 'many' and TypeError on None, and
        # kept 2.7, which the substep loop then truncated to 2.
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            IntegratorConfig(**{field: count})

    @pytest.mark.parametrize("field", ["substeps_per_segment", "samples_per_segment"])
    @pytest.mark.parametrize("count", [1, 7, np.int64(7), np.uint16(7), MAX_SUBSTEPS])
    def test_accepts_integer_counts(self, field, count):
        assert getattr(IntegratorConfig(**{field: count}), field) == count

    @pytest.mark.parametrize(
        "tolerance", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, "1e-6", None]
    )
    def test_rejects_tolerances_no_distance_can_meet(self, tolerance):
        # convergence_check would double the substeps to the limit and fail there.
        with pytest.raises(InvalidParameterError, match="convergence_tolerance"):
            IntegratorConfig(mode=SUBSTEPPED, convergence_tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [5e-324, 1e-8, 1.0, 1e300, np.float32(1e-3), 2])
    def test_accepts_finite_positive_tolerances(self, tolerance):
        assert IntegratorConfig(convergence_tolerance=tolerance).convergence_tolerance == tolerance

    def test_integrator_defaults_to_midpoint(self):
        assert IntegratorConfig().integrator == MIDPOINT
        assert resolve_config(time_optimal_schedule(), None).integrator == MIDPOINT

    def test_rejects_unknown_integrator(self):
        with pytest.raises(ModeError, match="unknown integrator 'rk4'"):
            IntegratorConfig(mode=SUBSTEPPED, integrator="rk4")

    def test_magnus4_requires_substepped_mode(self):
        IntegratorConfig(mode=SUBSTEPPED, integrator=MAGNUS4)
        with pytest.raises(ModeError, match="requires substepped mode"):
            IntegratorConfig(integrator=MAGNUS4)

    def test_auto_mode_follows_modulations(self):
        plain = standard_schedule(1.65, V)
        assert resolve_config(plain, None).mode == EXACT
        assert resolve_config(time_optimal_schedule(), None).mode == SUBSTEPPED

    def test_exact_mode_rejected_for_modulated_schedule(self):
        noisy = dataclasses.replace(
            standard_schedule(1.65, V), noise=NoiseSpec(eta_omega=0.01)
        )
        with pytest.raises(ModeError):
            resolve_config(noisy, IntegratorConfig(mode=EXACT))


class TestStatePropagation:
    def test_rejects_unnormalized_initial_state(self):
        psi = np.zeros(9, dtype=complex)
        psi[0] = 0.9
        with pytest.raises(InvalidParameterError):
            propagate_state(standard_schedule(1.0, V), psi)

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_preserved_on_random_schedules(self, seed):
        rng = np.random.default_rng(500 + seed)
        schedule = random_schedule(rng)
        result = propagate_state(schedule, random_state(rng))
        np.testing.assert_allclose(result.norms, 1.0, atol=1e-9)
        sums = result.populations.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)

    def test_history_shape(self):
        schedule = standard_schedule(1.65, V)
        config = IntegratorConfig(samples_per_segment=25)
        result = propagate_state(schedule, basis_state("11"), config)
        assert result.times.shape == (1 + 4 * 25,)
        assert result.populations.shape == (1 + 4 * 25, 9)
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(schedule.total_duration)
        assert np.all(np.diff(result.times) > 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_and_substepped_agree(self, seed):
        rng = np.random.default_rng(600 + seed)
        schedule = random_schedule(rng, max_segments=2)
        psi = random_state(rng)
        exact = propagate_state(schedule, psi).final_state
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=600)
        stepped = propagate_state(schedule, psi, config).final_state
        assert np.linalg.norm(exact - stepped) < 1e-8

    def test_segment_composition(self):
        schedule = standard_schedule(1.65, V)
        whole = evolution_operator(schedule)
        parts = np.eye(9, dtype=complex)
        for segment in schedule.segments:
            single = dataclasses.replace(schedule, segments=(segment,))
            parts = evolution_operator(single) @ parts
        assert np.max(np.abs(whole - parts)) < 1e-10

    def test_rescaling_invariance(self):
        schedule = standard_schedule(1.65, V)
        operator = evolution_operator(schedule)
        scaled = evolution_operator(schedule.rescaled(3.7))
        assert np.max(np.abs(operator - scaled)) < 1e-12

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_operator_reproduces_state_propagation(self, kind):
        rng = np.random.default_rng(77)
        schedule = engine_schedule(kind, rng)
        psi = random_state(rng)
        via_operator = evolution_operator(schedule) @ psi
        direct = propagate_state(schedule, psi).final_state
        assert np.linalg.norm(via_operator - direct) < 1e-10

    @pytest.mark.parametrize("kappa", [0.7, 1.65, 3.0])
    def test_segment_boundary_samples_match_prefix_operators(self, kappa):
        # Exact-mode samples come from repeated step products; at each
        # segment boundary they must agree with one exponential per segment.
        schedule = standard_schedule(kappa, V)
        psi = random_state(np.random.default_rng(700))
        samples = 40
        result = propagate_state(schedule, psi, IntegratorConfig(samples_per_segment=samples))
        for count in range(1, len(schedule.segments) + 1):
            prefix = dataclasses.replace(schedule, segments=schedule.segments[:count])
            expected = np.abs(evolution_operator(prefix) @ psi) ** 2
            np.testing.assert_allclose(
                result.populations[count * samples], expected, rtol=0.0, atol=1e-10
            )

    # One substep per segment, and for the four-segment schedules a row
    # of 32 steps one step longer (31) and shorter (33) than the budget.
    @pytest.mark.parametrize("substeps, blocks", [(1, None), (7, None), (8, 31), (8, 33)])
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_substepped_operator_matches_scalar_oracle(self, kind, substeps, blocks, monkeypatch):
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=substeps)
        expected = np.eye(9, dtype=complex)
        for _, _, step in oracle_step_operators(schedule, substeps):
            expected = step @ expected
        actual = evolution_operator(schedule, config)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("substeps, samples, blocks", SAMPLE_EDGES)
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_sampled_states_match_scalar_oracle(
        self, kind, substeps, samples, blocks, monkeypatch
    ):
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(
            mode=SUBSTEPPED, substeps_per_segment=substeps, samples_per_segment=samples
        )
        psi = random_state(np.random.default_rng(80))
        result = propagate_state(schedule, psi, config)
        assert_history_matches_oracle(result, oracle_history(schedule, substeps, samples, psi))

    @pytest.mark.parametrize("substeps, blocks", [(1, None), (7, None), (8, 31), (8, 33)])
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_magnus4_operator_matches_scalar_oracle(self, kind, substeps, blocks, monkeypatch):
        # A row of 8 substeps is 16 exponentials per segment, 64 per
        # schedule: the budgets slice it one step short of and past 32.
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(
            mode=SUBSTEPPED, substeps_per_segment=substeps, integrator=MAGNUS4
        )
        expected = np.eye(9, dtype=complex)
        for _, _, step in oracle_step_operators(schedule, substeps, integrator=MAGNUS4):
            expected = step @ expected
        actual = evolution_operator(schedule, config)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("substeps, samples, blocks", SAMPLE_EDGES)
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_magnus4_samples_match_scalar_oracle(
        self, kind, substeps, samples, blocks, monkeypatch
    ):
        # Samples fall only at substep ends, so the pair of exponentials
        # of a substep is never split across sample intervals, and a
        # padded interval holds whole identity pairs.
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(
            mode=SUBSTEPPED,
            substeps_per_segment=substeps,
            samples_per_segment=samples,
            integrator=MAGNUS4,
        )
        psi = random_state(np.random.default_rng(82))
        result = propagate_state(schedule, psi, config)
        oracle = oracle_history(schedule, substeps, samples, psi, integrator=MAGNUS4)
        assert_history_matches_oracle(result, oracle)

    @pytest.mark.parametrize("samples, blocks", [(1, None), (3, None), (5, 2)])
    def test_exact_samples_match_repeated_steps(self, samples, blocks, monkeypatch):
        # Each segment splits into `samples` equal steps, all sampled.
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        rng = np.random.default_rng(81)
        schedule = random_schedule(rng)
        psi = random_state(rng)
        result = propagate_state(schedule, psi, IntegratorConfig(samples_per_segment=samples))
        current, t_start, populations, times = psi, 0.0, [np.abs(psi) ** 2], [0.0]
        for segment in schedule.segments:
            dt = segment.duration / samples
            step = oracle_unitary(segment.rabi, segment.detuning, segment.phase, schedule.interaction, dt)
            for k in range(samples):
                current = step @ current
                populations.append(np.abs(current) ** 2)
                times.append(t_start + (k + 1) * dt)
            t_start += segment.duration
        np.testing.assert_allclose(result.populations, populations, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(result.times, times)
        np.testing.assert_allclose(result.final_state, current, rtol=0.0, atol=1e-12)

    def test_empty_schedule_records_only_the_initial_state(self):
        psi = basis_state("11")
        result = propagate_state(Schedule(segments=(), interaction=V), psi)
        np.testing.assert_array_equal(result.times, [0.0])
        np.testing.assert_array_equal(result.final_state, psi)
        np.testing.assert_array_equal(result.populations, [np.abs(psi) ** 2])

    @pytest.mark.parametrize("kind", ["plain", "thermal"])
    def test_basis_states_in_one_propagation(self, kind):
        if kind == "plain":
            schedule, config = standard_schedule(1.65, V), IntegratorConfig(samples_per_segment=7)
        else:
            schedule = modulated_schedule("thermal", 9)
            config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=9, samples_per_segment=4)
        indices = (8, 0, 4)
        result = propagate.propagate_basis(schedule, indices, config)
        assert result.populations.shape == (len(result.times), 3, 9)
        for column, index in enumerate(indices):
            alone = propagate_state(schedule, basis_state(index), config)
            np.testing.assert_array_equal(result.times, alone.times)
            np.testing.assert_array_equal(result.final_state[column], alone.final_state)
            np.testing.assert_array_equal(result.populations[:, column], alone.populations)
            np.testing.assert_array_equal(result.norms[:, column], alone.norms)

    @pytest.mark.parametrize("index", [9, -1, 4.9, True])
    def test_basis_indices_are_checked(self, index):
        # int() would take 4.9 as |11> (index 4) and True as |01>.
        with pytest.raises(InvalidParameterError, match="basis index"):
            propagate.propagate_basis(standard_schedule(1.65, V), [0, index])

    def test_basis_indices_of_numpy_integer_types_are_accepted(self):
        schedule = standard_schedule(1.65, V)
        result = propagate.propagate_basis(schedule, np.array([4, 0], dtype=np.int64))
        expected = propagate.propagate_basis(schedule, [4, 0])
        np.testing.assert_array_equal(result.final_state, expected.final_state)

    def test_evolution_operator_is_unitary(self):
        u = evolution_operator(standard_schedule(0.7, V))
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-12

    @pytest.mark.parametrize("kind", ["exact", "midpoint", "magnus4", "empty"])
    def test_evolution_blocks_scatter_to_the_evolution_operator(self, kind):
        thermal = ThermalSpec(equilibrium_distance=4.0, temperature=20.0, vibration_rate=40.0)
        warm = dataclasses.replace(standard_schedule(1.65, V), thermal=thermal)
        schedule, config = {
            "exact": (standard_schedule(1.65, V), None),
            "midpoint": (warm, IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=30)),
            "magnus4": (
                time_optimal_schedule(),
                IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=30, integrator=MAGNUS4),
            ),
            "empty": (Schedule(segments=(), interaction=V), None),
        }[kind]
        operator = evolution_operator(schedule, config)
        blocks = propagate.evolution_blocks(schedule, config)
        np.testing.assert_array_equal(sector_unitary(blocks), operator)
        if kind == "empty":
            np.testing.assert_array_equal(operator, np.eye(9))


class TestNoiseHandling:
    def test_noisy_evolution_is_reproducible(self):
        schedule = dataclasses.replace(
            standard_schedule(1.65, V),
            noise=NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=40, seed=7),
        )
        config = IntegratorConfig(mode=SUBSTEPPED)
        first = evolution_operator(schedule, config)
        second = evolution_operator(schedule, config)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        base = standard_schedule(1.65, V)
        config = IntegratorConfig(mode=SUBSTEPPED)
        outcomes = []
        for seed in (1, 2):
            noisy = dataclasses.replace(
                base,
                noise=NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=40, seed=seed),
            )
            outcomes.append(evolution_operator(noisy, config))
        assert np.max(np.abs(outcomes[0] - outcomes[1])) > 1e-6

    def test_zero_amplitude_noise_matches_plain_schedule(self):
        base = standard_schedule(1.65, V)
        quiet = dataclasses.replace(
            base, noise=NoiseSpec(eta_omega=0.0, eta_delta=0.0, substeps=64, seed=3)
        )
        plain = evolution_operator(base)
        noisy = evolution_operator(quiet, IntegratorConfig(mode=SUBSTEPPED))
        assert np.max(np.abs(plain - noisy)) < 1e-10


class TestDensityPropagation:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_matches_pure_evolution_without_decay(self, kind):
        rng = np.random.default_rng(78)
        schedule = engine_schedule(kind, rng)
        psi = random_state(rng)
        rho = np.outer(psi, psi.conj())
        final_psi = propagate_state(schedule, psi).final_state
        final_rho = propagate_density(schedule, rho, DecaySpec(gamma=0.0)).final_state
        assert np.max(np.abs(final_rho - np.outer(final_psi, final_psi.conj()))) < 1e-10

    @pytest.mark.parametrize("substeps, samples, blocks", SAMPLE_EDGES)
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_decayed_substeps_match_scalar_oracle(
        self, kind, substeps, samples, blocks, monkeypatch
    ):
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(
            mode=SUBSTEPPED, substeps_per_segment=substeps, samples_per_segment=samples
        )
        decay = DecaySpec.from_multiplier(5.0)
        psi = random_state(np.random.default_rng(79))
        rho = np.outer(psi, psi.conj())
        result = propagate_density(schedule, rho, decay, config)
        oracle = oracle_history(schedule, substeps, samples, rho, decay.gamma)
        assert_history_matches_oracle(result, oracle)

    @pytest.mark.parametrize("substeps, samples, blocks", SAMPLE_EDGES)
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_magnus4_decayed_substeps_match_scalar_oracle(
        self, kind, substeps, samples, blocks, monkeypatch
    ):
        # Each exponential of a substep carries half of its decay.
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(
            mode=SUBSTEPPED,
            substeps_per_segment=substeps,
            samples_per_segment=samples,
            integrator=MAGNUS4,
        )
        decay = DecaySpec.from_multiplier(5.0)
        psi = random_state(np.random.default_rng(83))
        rho = np.outer(psi, psi.conj())
        result = propagate_density(schedule, rho, decay, config)
        oracle = oracle_history(schedule, substeps, samples, rho, decay.gamma, MAGNUS4)
        assert_history_matches_oracle(result, oracle)

    def test_trace_growth_fails_at_its_first_sample(self, monkeypatch):
        # Decayed steps scaled by 1.01 make the trace grow from the start.
        original = propagate.expm
        monkeypatch.setattr(propagate, "expm", lambda matrix: 1.01 * original(matrix))
        schedule = standard_schedule(1.65, V)
        psi = basis_state("11")
        first = schedule.segments[0].duration / 100
        with pytest.raises(IntegratorFailureError, match=rf"grew from 1\.0 to .* at t = {first}$"):
            propagate_density(schedule, np.outer(psi, psi), DecaySpec(gamma=1e-3))

    def test_non_finite_trace_fails_loudly(self):
        # gamma dt near 1e297 is far beyond the 1-norm limit 2^53 of the
        # step exponential, which gives a NaN step there.
        psi = basis_state("11")
        with pytest.raises(IntegratorFailureError, match="not finite .* 1-norm of 2\\^53"):
            propagate_density(
                standard_schedule(1.65, V), np.outer(psi, psi), DecaySpec.from_multiplier(1e300)
            )

    def test_underflowed_trace_fails_loudly(self):
        # |rr> alone keeps e^{-4 gamma t} of the trace: at gamma = 200 it
        # underflows to 0 before t = 1, which is a numeric failure.
        schedule = Schedule(
            segments=(PulseSegment(rabi=0.0, detuning=1.0, phase=0.0, duration=1.0),),
            interaction=V,
        )
        rr = basis_state("rr")
        with pytest.raises(IntegratorFailureError, match=r"trace 1\.0 is lost: .* at t = 0\.9"):
            propagate_density(schedule, np.outer(rr, rr), DecaySpec(gamma=200.0))

    def test_trace_never_increases_under_decay(self):
        schedule = standard_schedule(1.65, V)
        psi = basis_state("11")
        rho = np.outer(psi, psi.conj())
        result = propagate_density(schedule, rho, DecaySpec.from_multiplier(5.0))
        assert result.norms[0] == pytest.approx(1.0)
        assert np.all(np.diff(result.norms) <= 1e-12)
        assert result.norms[-1] < 1.0

    def test_unexcited_state_never_decays(self):
        schedule = Schedule(
            segments=(PulseSegment(rabi=0.0, detuning=1.0, phase=0.0, duration=1.0),),
            interaction=V,
        )
        psi = basis_state("00")
        rho = np.outer(psi, psi.conj())
        result = propagate_density(schedule, rho, DecaySpec.from_multiplier(10.0))
        assert result.norms[-1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_density(self):
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 1] = 1.0
        with pytest.raises(InvalidParameterError):
            propagate_density(standard_schedule(1.0, V), rho, DecaySpec(gamma=0.0))


class TestConvergence:
    def test_report_on_modulated_schedule(self):
        schedule = time_optimal_schedule()
        config = IntegratorConfig(
            mode=SUBSTEPPED, substeps_per_segment=50, convergence_tolerance=1e-8
        )
        psi = basis_state("11")
        report = convergence_check(schedule, psi, config)
        assert report.initial_substeps == 50
        assert report.converged_substeps > 50
        assert report.distance < 1e-8
        assert report.integrator == MAGNUS4

    @pytest.mark.parametrize("integrator", [MIDPOINT, MAGNUS4])
    def test_refines_with_magnus4_and_reruns_from_its_report(self, integrator):
        schedule, psi = time_optimal_schedule(), experiments.superposition_state()
        config = IntegratorConfig(
            mode=SUBSTEPPED,
            substeps_per_segment=200,
            convergence_tolerance=1e-6,
            integrator=integrator,
        )
        report = convergence_check(schedule, psi, config)
        # Fourth order: 2.4e-6 from 200 to 400 substeps, 1.1e-7 from 400
        # to 800; the midpoint rule needs 6,400.
        assert (report.converged_substeps, report.integrator) == (800, MAGNUS4)
        certified = dataclasses.replace(
            config, integrator=report.integrator, substeps_per_segment=report.converged_substeps
        )
        coarse = propagate_state(schedule, psi, certified).final_state
        finer = dataclasses.replace(certified, substeps_per_segment=4 * report.converged_substeps)
        fine = propagate_state(schedule, psi, finer).final_state
        assert np.linalg.norm(coarse - fine) < report.distance

    def test_requires_substepped_mode(self):
        with pytest.raises(ModeError):
            convergence_check(
                standard_schedule(1.0, V), basis_state("00"), IntegratorConfig()
            )

    def test_rejects_unnormalized_initial_state(self):
        with pytest.raises(InvalidParameterError, match="must be normalized"):
            convergence_check(
                time_optimal_schedule(), 0.9 * basis_state("11"), IntegratorConfig(mode=SUBSTEPPED)
            )

    def test_nan_steps_fail_at_once(self):
        # A drive of 1e300 puts every step generator's 1-norm beyond 2^53:
        # NaN steps. The check once doubled them to 2^20 substeps (5.5 s)
        # and then reported no convergence.
        base = time_optimal_schedule()
        segment = dataclasses.replace(base.segments[0], rabi=1e300)
        schedule = dataclasses.replace(base, segments=(segment,))
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=200)
        start = time.perf_counter()
        message = f"final state is not finite at substeps per segment = 200: {NAN_STEP}"
        with pytest.raises(IntegratorFailureError, match=re.escape(message)):
            convergence_check(schedule, experiments.superposition_state(), config)
        assert time.perf_counter() - start < 1.0

    def test_takes_final_states_without_sampling(self, monkeypatch):
        # The report is the one that propagate_state's final states gave.
        def refuse(*args, **kwargs):
            raise AssertionError("the sampling engine ran")

        monkeypatch.setattr(propagate, "_sampled", refuse)
        config = IntegratorConfig(
            mode=SUBSTEPPED, substeps_per_segment=200, convergence_tolerance=1e-6
        )
        psi = experiments.superposition_state()
        report = convergence_check(time_optimal_schedule(), psi, config)
        assert report == ConvergenceReport(
            converged_substeps=800,
            distance=pytest.approx(1.1083221088021073e-07, rel=1e-9),
            initial_substeps=200,
            integrator=MAGNUS4,
        )

    @pytest.mark.parametrize("substeps", [200, 400, 800, 1100])
    def test_final_state_is_the_sampled_one(self, substeps):
        # 1,100 MAGNUS4 substeps are 2,200 exponentials: a row sliced in two.
        schedule, psi = time_optimal_schedule(), experiments.superposition_state()
        config = IntegratorConfig(
            mode=SUBSTEPPED,
            substeps_per_segment=substeps,
            samples_per_segment=1,
            integrator=MAGNUS4,
        )
        sampled = propagate_state(schedule, psi, config).final_state
        final = sector_unitary(evolution_blocks(schedule, config)) @ psi
        np.testing.assert_allclose(final, sampled, rtol=0.0, atol=1e-15)


class TestDecayStack:
    """evolution_blocks over a stack of decay rates against propagate_density at each rate."""

    # Multipliers 0, 5 and 1e5 (gamma dt near 620 on a 5 MHz segment).
    RATES = [0.0, 5.0 * BASE_DECAY_RATE, 1e5 * BASE_DECAY_RATE]

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("plain", IntegratorConfig(samples_per_segment=1)),
            ("phase-driven", IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8)),
            (
                "phase-driven",
                IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8, integrator=MAGNUS4),
            ),
            ("noisy", IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8)),
        ],
    )
    def test_rows_match_density_propagation(self, kind, config):
        if kind == "plain":
            schedule = standard_schedule(1.65, 2.0 * math.pi * 5.0 / 1.65, units="mhz")
        else:
            schedule = modulated_schedule(kind, 8)
        operators = sector_unitary(evolution_blocks(schedule, config, self.RATES))
        psi = random_state(np.random.default_rng(97))
        rho = np.outer(psi, psi.conj())
        for operator, gamma in zip(operators, self.RATES):
            expected = propagate_density(schedule, rho, DecaySpec(gamma=gamma), config).final_state
            actual = operator @ rho @ operator.conj().T
            np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    def test_a_rate_has_the_same_bits_alone_and_in_any_chunk(self, monkeypatch):
        schedule = time_optimal_schedule()
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8)
        rates = np.linspace(0.0, 3.0, 7)
        alone = [evolution_blocks(schedule, config, [gamma]) for gamma in rates]
        # Two rows of 8 steps per batch: the rates are taken two at a time.
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", 16)
        stacked = evolution_blocks(schedule, config, rates)
        for k, blocks in enumerate(alone):
            for row, block in zip(blocks, stacked.at(np.s_[k : k + 1])):
                np.testing.assert_array_equal(block, row)

    @pytest.mark.parametrize("substeps", [8, 3000])
    def test_builds_one_batch_of_complex_detunings_at_a_time(self, substeps, monkeypatch):
        sizes, original = [], propagate.sector_product

        def recording(rabi, detuning, *rest):
            sizes.append(np.size(detuning))
            return original(rabi, detuning, *rest)

        monkeypatch.setattr(propagate, "sector_product", recording)
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=substeps)
        evolution_blocks(time_optimal_schedule(), config, np.linspace(0.0, 1.0, 5))
        assert max(sizes) <= max(propagate._BATCH_BLOCKS, substeps)
        # 5 rows of 8 steps are one batch; rows of 3,000 steps one each.
        assert len(sizes) == (1 if substeps == 8 else 5)

    @pytest.mark.parametrize("gamma", [[-1.0], [math.nan], [math.inf], [0.0, -1e-300]])
    def test_rejects_rates_that_are_not_finite_and_non_negative(self, gamma):
        with pytest.raises(InvalidParameterError, match="decay rates"):
            evolution_blocks(standard_schedule(1.65, V), None, gamma)

    def test_stack_shape_follows_the_rates(self):
        for schedule in (standard_schedule(1.65, V), Schedule(segments=(), interaction=V)):
            for rates in ([], [0.0, 1.0, 2.0]):
                blocks = evolution_blocks(schedule, None, rates)
                assert [b.shape for b in blocks] == [
                    (2, 2, len(rates)), (3, 3, len(rates)), (len(rates),)
                ]
        empty = evolution_blocks(Schedule(segments=(), interaction=V), None, [0.0, 1.0])
        np.testing.assert_array_equal(sector_unitary(empty), np.broadcast_to(np.eye(9), (2, 9, 9)))



def oracle_unitary(rabi, detuning, phase, v, t) -> np.ndarray:
    """kron-assembled H and scipy expm, one element at a time."""
    return expm(-1j * kron_hamiltonian(rabi, detuning, phase, v) * t)


def triple_squarings(drive, dt) -> np.ndarray:
    """The squarings the step core takes for the triple block of each step."""
    rabi, detuning, _, v = drive
    _, generator = gauged_blocks(rabi * dt, detuning * dt, v * dt, np.shape(dt))
    norm = np.abs(generator).sum(axis=0).max(axis=0)
    return np.ceil(np.log2(np.maximum(norm / propagate._THETAS[-1], 1.0))).astype(int)


def random_drive(rng, shape):
    """A stack of drives with the edge cases rabi = 0, detuning = 0 and both."""
    rabi = rng.uniform(0.0, 8.0, shape)
    detuning = rng.uniform(-4.0, 4.0, shape)
    phase = rng.uniform(-math.pi, math.pi, shape)
    v = rng.uniform(0.0, 10.0, shape)
    # Element 0 has no drive, element 1 no detuning, element 2 neither.
    rabi.reshape(-1)[0:3:2] = 0.0
    detuning.reshape(-1)[1:3] = 0.0
    return rabi, detuning, phase, v


class TestSectorCore:
    """The sector-native step core against kron + scipy expm of the 9x9 operator."""

    @pytest.mark.parametrize("seed", range(4))
    def test_steps_match_expm_of_full_operator(self, seed):
        rng = np.random.default_rng(900 + seed)
        drive = random_drive(rng, (3, 5))
        t = rng.uniform(0.0, 2.0, (3, 5))
        actual = sector_unitary(sector_step(*drive, t))
        assert actual.shape == (3, 5, 9, 9)
        for index in np.ndindex(3, 5):
            expected = oracle_unitary(*(x[index] for x in drive), t[index])
            np.testing.assert_allclose(actual[index], expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("t", [1e-9, 50.0, 400.0])
    def test_short_and_long_durations(self, t):
        drive = random_drive(np.random.default_rng(910), (6,))
        actual = sector_unitary(sector_step(*drive, t))
        for index in range(6):
            expected = oracle_unitary(*(x[index] for x in drive), t)
            np.testing.assert_allclose(actual[index], expected, rtol=0.0, atol=1e-12)

    def test_durations_broadcast_against_the_stack(self):
        rng = np.random.default_rng(911)
        drive = random_drive(rng, (4,))
        t = rng.uniform(0.1, 3.0, (3, 1))
        actual = sector_unitary(sector_step(*drive, t))
        assert actual.shape == (3, 4, 9, 9)
        for i, k in np.ndindex(3, 4):
            expected = oracle_unitary(*(x[k] for x in drive), t[i, 0])
            np.testing.assert_allclose(actual[i, k], expected, rtol=0.0, atol=1e-12)

    def test_zero_duration_is_identity(self):
        drive = random_drive(np.random.default_rng(912), (5,))
        actual = sector_unitary(sector_step(*drive, 0.0))
        np.testing.assert_allclose(actual, np.broadcast_to(np.eye(9), actual.shape), atol=1e-15)

    def test_steps_are_unitary(self):
        # Durations up to 3, the longest step of the default scans (the
        # actuating scan), take up to 7 squarings here. The defect grows as
        # 2^s times the unit roundoff: about 2e-12 at 14 squarings.
        rng = np.random.default_rng(960)
        drive = random_drive(rng, (200,))
        dt = np.geomspace(1e-3, 3.0, 200)
        assert set(triple_squarings(drive, dt)) == set(range(8))
        full = sector_unitary(sector_step(*drive, dt))
        defect = np.abs(full @ full.conj().swapaxes(-1, -2) - np.eye(9)).max()
        assert defect <= 1e-13

    def test_a_step_gives_the_same_bits_alone_and_in_a_mixed_stack(self):
        rng = np.random.default_rng(962)
        drive = random_drive(rng, (48,))
        dt = np.geomspace(1e-3, 3e4, 48)
        squarings = triple_squarings(drive, dt)
        assert squarings.min() == 0 and squarings.max() >= 19
        whole = sector_step(*drive, dt)
        for k in range(48):
            alone = sector_step(*(x[k : k + 1] for x in drive), dt[k : k + 1])
            for actual, expected in zip(alone, whole.at(np.s_[k : k + 1])):
                np.testing.assert_array_equal(actual, expected)

    def test_generators_beyond_range_give_nan_within_55_squarings(self, monkeypatch):
        products = counting_products(monkeypatch)
        # With no drive and no detuning, |v dt| is the 1-norm of the
        # triple generator.
        v = -np.array([1.0, 2.0**53 - 2.0, 2.0**53, 1e300, np.inf])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            step = sector_step(0.0, 0.0, 0.3, v, 1.0)
        assert np.isfinite(step.triple[..., :2]).all()
        np.testing.assert_allclose(step.triple[2, 2, 0], np.exp(1j), rtol=0.0, atol=1e-15)
        assert np.isnan(step.triple[..., 2:]).all()
        np.testing.assert_array_equal(step.pair, np.broadcast_to(np.eye(2)[..., None], (2, 2, 5)))
        # Seven products for the series, then 55 squarings for the largest
        # 1-norm below 2^53.
        assert len(products) == 7 + 55

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8])
    def test_ordered_product_matches_sequential_product(self, count):
        rng = np.random.default_rng(913 + count)
        drive = random_drive(rng, (2, count))
        steps = sector_step(*drive, rng.uniform(0.1, 1.0, (2, count)))
        full = sector_unitary(steps)
        product = sector_unitary(ordered_product(steps))
        assert product.shape == (2, 9, 9)
        for row in range(2):
            expected = np.eye(9, dtype=complex)
            for k in range(count):
                expected = full[row, k] @ expected
            np.testing.assert_allclose(product[row], expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("blocks", [1, 3, 5, 12, 2048])
    def test_sector_product_matches_sequential_product(self, blocks, monkeypatch):
        # Rows of 5 steps: the budget slices a row along time, batches
        # rows whole, or holds the whole stack.
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        rng = np.random.default_rng(930)
        rabi, detuning, phase, v = random_drive(rng, (2, 3, 5))
        dt = rng.uniform(0.1, 1.0, 5)
        product = sector_unitary(sector_product(rabi, detuning, phase[0, 0], v, dt))
        assert product.shape == (2, 3, 9, 9)
        for index in np.ndindex(2, 3):
            expected = np.eye(9, dtype=complex)
            for k in range(5):
                step = (rabi[index][k], detuning[index][k], phase[0, 0][k], v[index][k], dt[k])
                expected = oracle_unitary(*step) @ expected
            np.testing.assert_allclose(product[index], expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    @pytest.mark.parametrize("blocks", [5, 10, 15, 2048])
    def test_sector_product_rows_do_not_depend_on_the_batch(self, blocks, gamma, monkeypatch):
        # With decay the rows' steps take 0 to 6 squarings in expm.
        rng = np.random.default_rng(931)
        drive = random_drive(rng, (7, 5))
        dt = rng.uniform(0.1, 1.0, (7, 5))
        drive = decayed(drive, gamma) if gamma else drive
        reference = sector_product(*drive, dt)
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        for actual, expected in zip(sector_product(*drive, dt), reference):
            np.testing.assert_array_equal(actual, expected)

    def test_block_product_is_the_product_of_unitaries(self):
        rng = np.random.default_rng(920)
        drive = random_drive(rng, (4,))
        a, b = sector_step(*drive, 0.3), sector_step(*drive, 1.1)
        np.testing.assert_allclose(
            sector_unitary(a @ b), sector_unitary(a) @ sector_unitary(b), rtol=0.0, atol=1e-13
        )
        assert isinstance(a.at(np.s_[1:]), SectorBlocks)

    def test_computational_diagonal_is_what_the_scatter_places(self):
        rng = np.random.default_rng(921)
        steps = sector_step(*random_drive(rng, (2, 3)), rng.uniform(0, 2, (2, 3)))
        full = sector_unitary(steps)
        np.testing.assert_array_equal(
            computational_diagonal(steps), full[..., COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES]
        )

    def test_no_nine_state_eigh(self, monkeypatch):
        """Every consumer exponentiates sector blocks only, and no eigh runs."""
        original_expm = propagate.expm
        eigh_calls, expm_sizes = [], set()

        def refuse_eigh(matrix, *args, **kwargs):
            eigh_calls.append(np.shape(matrix))
            raise AssertionError("np.linalg.eigh was called")

        def recording_expm(matrix):
            # Stacks hold their matrix axes first.
            expm_sizes.add(np.shape(matrix)[0])
            return original_expm(matrix)

        monkeypatch.setattr(np.linalg, "eigh", refuse_eigh)
        monkeypatch.setattr(propagate, "expm", recording_expm)
        evolution_operator(standard_schedule(1.65, V))
        for kind in ("noisy", "thermal", "phase-driven"):
            schedule = modulated_schedule(kind, 8)
            config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8)
            evolution_operator(schedule, config)
            propagate_state(schedule, basis_state("11"), config)
        propagate_density(standard_schedule(1.0, V), np.eye(9) / 9.0, DecaySpec(gamma=0.0))
        experiments.scan_kappa([0.5, 1.65])
        experiments.run_actuating_scan(eta_list=(1.0,), phase_count=3, duration_count=4)
        experiments.run_actuating_scan(
            eta_list=(1.0,), phase_count=3, duration_count=4, independent_phases=True
        )
        for which in ("01", "11"):
            geometry.sector_evolution(which, 1.65, V, 0.3)
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=4, seed=1)
        stochastic.monte_carlo_gate_fidelity(1.65, V0, spec, 3)
        assert not eigh_calls and not expm_sizes
        experiments.run_decay_curves(multiplier_grid=[0.0, 5.0], time_optimal_substeps=8)
        assert not eigh_calls and expm_sizes == {2, 3}


def compact_drive(rng, stack, steps, gamma=None):
    """A drive for sector_product over stack + (steps,) whose inputs keep
    size-1 axes: rabi varies along the first stack axis only, v along
    the last, the phase along time only, and detuning and dt not at all,
    unless decay rates gamma (one per element of the first stack axis)
    make the detuning vary along it."""
    rank = len(stack) + 1
    first = (stack[:1] or (1,)) + (1,) * (rank - 1)
    rabi = rng.uniform(0.0, 8.0, first)
    v = rng.uniform(0.0, 10.0, (1,) * (rank - 2) + stack[-1:] + (1,))
    detuning = rng.uniform(-4.0, 4.0)
    if gamma is not None:
        detuning = detuning - 1j * np.reshape(gamma, first)
    return rabi, detuning, rng.uniform(-math.pi, math.pi, steps), v, rng.uniform(0.1, 1.0, (1,))


def full_drive(drive):
    """The drive with every input broadcast to the shape of the stack."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in drive))
    return [np.broadcast_to(x, shape) for x in drive]


def recording_expm(monkeypatch) -> list:
    """The number of matrices of each stack that reaches propagate.expm."""
    sizes, original = [], propagate.expm

    def recording(matrix):
        sizes.append(math.prod(np.shape(matrix)[2:]))
        return original(matrix)

    monkeypatch.setattr(propagate, "expm", recording)
    return sizes


class TestCompactInputs:
    """Inputs that keep size-1 axes give the bits of inputs broadcast to the
    whole stack, and steps that differ only in phase share their exponential."""

    @pytest.mark.parametrize(
        "stack, steps, blocks, gamma",
        [
            pytest.param((3,), 8, 2048, None, id="one-batch"),
            pytest.param((7,), 5, 15, None, id="sliced-rows"),
            pytest.param((3,), 11, 4, None, id="sliced-time"),
            pytest.param((2, 3), 5, 10, None, id="two-stack-axes"),
            pytest.param((4,), 6, 12, [0.0, 0.3, 5.0, 600.0], id="decay-rate-stack"),
            pytest.param((1,), 11, 4, [0.7], id="no-input-varies-along-the-stack"),
        ],
    )
    def test_compact_inputs_have_the_bits_of_full_ones(self, stack, steps, blocks, gamma, monkeypatch):
        drive = compact_drive(np.random.default_rng(2101), stack, steps, gamma)
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        actual, expected = sector_product(*drive), sector_product(*full_drive(drive))
        assert actual.anti.shape == stack
        for block, reference in zip(actual, expected):
            np.testing.assert_array_equal(block, reference)

    @pytest.mark.parametrize("kind", ["phase-driven", "thermal", "noisy"])
    @pytest.mark.parametrize("integrator", [MIDPOINT, MAGNUS4])
    @pytest.mark.parametrize("gamma", [None, [0.0, 0.4]])
    def test_substep_drive_has_the_bits_of_the_full_drive(self, kind, integrator, gamma, monkeypatch):
        # 4 segments of 8 substeps against a budget of 16 steps: every row
        # is sliced along time.
        schedule = modulated_schedule(kind, 8)
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8, integrator=integrator)
        drives, original = [], propagate._substep_drive
        monkeypatch.setattr(
            propagate, "_substep_drive", lambda *args: drives.append(original(*args)) or drives[-1]
        )
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", 16)
        actual = evolution_blocks(schedule, config, gamma)
        # Each input at the full shape, the MAGNUS4 sums taken over it.
        shape = (len(schedule.segments), 8, 2 if integrator == MAGNUS4 else 1)
        magnus4 = propagate._magnus4_drive
        monkeypatch.setattr(
            propagate, "_magnus4_drive", lambda *x: magnus4(*(np.broadcast_to(y, shape) for y in x))
        )
        full = [np.broadcast_to(x, shape).reshape(-1) for x in original(schedule, 8, integrator)[0]]
        rabi, detuning, *rest = full
        if gamma is not None:
            detuning = detuning - 1j * np.reshape(gamma, (-1, 1))
        for block, reference in zip(actual, sector_product(rabi, detuning, *rest)):
            np.testing.assert_array_equal(block, reference)
        assert any(np.size(x) < math.prod(shape) for x in drives[0][0])

    def test_phase_only_steps_take_one_exponential_per_rate(self, monkeypatch):
        # The time-optimal curve of the decay scan: 1,500 midpoint substeps
        # whose only modulation is the drive phase.
        sizes = recording_expm(monkeypatch)
        multipliers = [0.0, 5.0, 10.0]
        experiments.run_decay_curves(rabi_frequencies=(), multiplier_grid=multipliers)
        # One pair and one triple block per rate.
        assert sum(sizes) == 2 * len(multipliers)

    def test_phase_only_substeps_share_one_exponential_when_sampled(self, monkeypatch):
        # 1,500 midpoint substeps of the time-optimal gate differ only in
        # phase, and the sampled engine keeps each input at its own shape.
        sizes = recording_expm(monkeypatch)
        rho = np.outer(basis_state("11"), basis_state("11"))
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=1500)
        propagate_density(time_optimal_schedule(), rho, DecaySpec(gamma=0.05), config)
        # One pair and one triple block.
        assert sum(sizes) == 2

    def test_thermal_steps_take_one_exponential_each(self, monkeypatch):
        sizes = recording_expm(monkeypatch)
        schedule = modulated_schedule("thermal", 8)
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=8)
        evolution_blocks(schedule, config, [0.0, 0.5])
        assert sum(sizes) == 2 * 2 * len(schedule.segments) * 8


class TestExactModeIsAStepCount:
    """Exact mode is substepped mode at one substep per segment, or at
    samples_per_segment substeps when sampling: the same bits."""

    @pytest.mark.parametrize("gamma", [None, [0.0, 0.3, 600.0]])
    @pytest.mark.parametrize("seed", range(6))
    def test_operator_has_the_bits_of_one_substep_per_segment(self, seed, gamma):
        schedule = random_schedule(np.random.default_rng(2300 + seed))
        substepped = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=1)
        expected = evolution_blocks(schedule, substepped, gamma)
        for block, reference in zip(evolution_blocks(schedule, None, gamma), expected):
            np.testing.assert_array_equal(block, reference)

    @pytest.mark.parametrize("samples, blocks", [(1, None), (7, None), (5, 4)])
    def test_records_have_the_bits_of_one_substep_per_sample(self, samples, blocks, monkeypatch):
        if blocks is not None:
            monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        rng = np.random.default_rng(2310 + samples)
        schedule, psi = random_schedule(rng), random_state(rng)
        exact = IntegratorConfig(samples_per_segment=samples)
        substepped = dataclasses.replace(exact, mode=SUBSTEPPED, substeps_per_segment=samples)
        for engine in (
            lambda config: propagate_state(schedule, psi, config),
            lambda config: propagate_basis(schedule, range(9), config),
        ):
            expected = dataclasses.astuple(engine(substepped))
            for record, reference in zip(dataclasses.astuple(engine(exact)), expected):
                np.testing.assert_array_equal(record, reference)


def contracting_generators(rng, size, norms) -> np.ndarray:
    """Stacked -i H - gamma N, with H random Hermitian, N = diag(0, 1, ...)
    and gamma in [0, 2), each scaled to the 1-norm given in norms."""
    count = len(norms)
    h = rng.normal(size=(count, size, size)) + 1j * rng.normal(size=(count, size, size))
    decay = rng.uniform(0.0, 2.0, (count, 1, 1)) * np.diag(np.arange(size, dtype=float))
    generators = -1j * (h + h.conj().swapaxes(-1, -2)) - decay
    return generators * (norms / np.abs(generators).sum(axis=-2).max(axis=-1))[:, None, None]


def counting_products(monkeypatch) -> list:
    """Record each stacked matrix product expm makes."""
    products, original = [], propagate._product
    monkeypatch.setattr(
        propagate, "_product", lambda a, b: products.append(a.shape) or original(a, b)
    )
    return products


def matrices_first(stack) -> np.ndarray:
    """A stack (N, n, n) held matrix axes first, (n, n, N)."""
    return np.moveaxis(stack, 0, -1)


class TestExpm:
    """propagate.expm against scipy.linalg.expm, one matrix at a time.

    The tolerance is 1e-12 of the norm, and 1e-12 from norm 1 on."""

    NORMS = np.geomspace(1e-8, 1e3, 89)

    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_scipy_from_tiny_to_large_norms(self, size):
        squarings = np.ceil(np.log2(np.maximum(self.NORMS / propagate._THETA, 1.0)))
        assert set(squarings) == set(range(13))
        generators = contracting_generators(np.random.default_rng(950 + size), size, self.NORMS)
        actual = propagate.expm(matrices_first(generators))
        assert actual.shape == (size, size, len(generators))
        for k, (generator, norm) in enumerate(zip(generators, self.NORMS)):
            tolerance = 1e-12 * min(norm, 1.0)
            np.testing.assert_allclose(actual[..., k], expm(generator), rtol=0.0, atol=tolerance)

    @pytest.mark.parametrize("dt", [0.1, 1.0, 7.0, 400.0])
    def test_exceptional_point(self, dt):
        # -i dt H_eff, H_eff = [[0, c], [c*, -i gamma]] with |c| = gamma / 2,
        # has one double eigenvalue and is not diagonalisable.
        gamma, c = 0.8, 0.4 * np.exp(1.1j)
        generator = -1j * dt * np.array([[0.0, c], [np.conj(c), -1j * gamma]])
        actual = propagate.expm(generator)
        np.testing.assert_allclose(actual, expm(generator), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3, 1), (3, 3, 4)])
    def test_leaves_its_input_unchanged(self, shape):
        rng = np.random.default_rng(954)
        generator = rng.normal(size=shape) * 20.0 + 1j * rng.normal(size=shape)
        before = generator.copy()
        propagate.expm(generator)
        np.testing.assert_array_equal(generator, before)

    def test_a_matrix_gives_the_same_bits_in_any_stack(self):
        generators = matrices_first(
            contracting_generators(np.random.default_rng(953), 3, self.NORMS)
        )
        whole = propagate.expm(generators.reshape(3, 3, 89, 1))[..., 0]
        for part in (np.s_[0], np.s_[88], np.s_[30:47], np.s_[::7]):
            np.testing.assert_array_equal(
                propagate.expm(generators[:, :, part]), whole[:, :, part]
            )

    def test_matrices_beyond_range_give_nan_within_55_squarings(self, monkeypatch):
        products = counting_products(monkeypatch)
        largest = 2.0**53 - 2.0
        values = [-1.0, -largest, -(2.0**53), -1e300, np.inf, np.nan]
        stack = matrices_first(np.array([np.diag([value, 0.0]) for value in values], dtype=complex))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            result = propagate.expm(stack)
        np.testing.assert_allclose(result[..., 0], np.diag([math.exp(-1.0), 1.0]), rtol=1e-15)
        np.testing.assert_array_equal(result[..., 1], np.diag([0.0, 1.0]))
        assert np.isnan(result[..., 2:]).all()
        # Five products for the polynomial, then 55 squarings for the
        # largest 1-norm below 2^53.
        assert len(products) == 5 + 55


def symmetric_with_norm(rng, norm: float) -> np.ndarray:
    """A random real symmetric 3 x 3 matrix of 1-norm exactly norm.

    Its entries are integer multiples of the last bit of norm, so every
    column sum is exact; a random column sums to norm, the others less."""
    mantissa, exponent = math.frexp(norm)
    whole = int(mantissa * 2**53)
    x = np.zeros((3, 3))
    x[np.triu_indices(3, 1)] = rng.integers(-whole // 8, whole // 8, 3)
    x += x.T
    targets = rng.permutation([whole, 3 * (whole // 4), whole // 2])
    diagonal = (targets - np.abs(x).sum(axis=0)) * rng.choice([-1.0, 1.0], 3)
    return (x + np.diag(diagonal)) * 2.0 ** (exponent - 53)


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.abs(u @ u.conj().T - np.eye(len(u))).max())


# The products of each series class, m + 1 for the series to y^m in
# _DEGREES (the top class here with no squaring), and of the top class
# with one squaring.
CLASS_PRODUCTS = (3, 4, 5, 7)
EDGE_PRODUCTS = CLASS_PRODUCTS + (8,)


class TestSizedSeries:
    """The real triple step takes the series its own 1-norm needs:
    degree m in y = x^2 (_DEGREES) up to theta_m (_THETAS), and the top
    degree by scaling and squaring beyond."""

    def test_thetas_follow_the_rule_of_the_top_class(self):
        # The first neglected term of cos, theta^(2m + 2) / (2m + 2)!, is 2^-53.
        np.testing.assert_allclose(
            propagate._THETAS, [0.0066, 0.0381, 0.1150, 0.4384], atol=5e-5
        )
        assert propagate._DEGREES == (2, 3, 4, 6)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_each_class_edge_matches_scipy(self, index, side, monkeypatch):
        # theta (1 - 2^-52) and theta take class m, theta (1 + 2^-52) the
        # next: past the top theta, the top degree with one squaring.
        norm = propagate._THETAS[index] * (1.0 + side * 2.0**-52)
        x = symmetric_with_norm(np.random.default_rng(970 + index), norm)
        assert propagate._one_norm(x) == norm
        products = counting_products(monkeypatch)
        actual = propagate._real_rotation(x[..., None])[..., 0]
        assert len(products) == EDGE_PRODUCTS[index + (side > 0)]
        np.testing.assert_allclose(actual, expm(-1j * x), rtol=0.0, atol=1e-15)
        assert unitarity_defect(actual) <= 1e-15

    @given(norm=st.floats(1e-12, 0.5), seed=st.integers(0, 2**32))
    def test_a_step_of_any_class_matches_scipy(self, norm, seed):
        x = symmetric_with_norm(np.random.default_rng(seed), norm)
        actual = propagate._real_rotation(x)
        np.testing.assert_allclose(actual, expm(-1j * x), rtol=0.0, atol=1e-15)
        assert unitarity_defect(actual) <= 1e-15

    @pytest.mark.parametrize("index", range(4))
    def test_product_count_per_class(self, index, monkeypatch):
        upper = propagate._THETAS[index]
        x = symmetric_with_norm(np.random.default_rng(975), 0.9 * upper)
        products = counting_products(monkeypatch)
        propagate._real_rotation(np.stack([x, 0.5 * x], axis=-1))
        assert len(products) == CLASS_PRODUCTS[index]

    def test_a_matrix_gives_the_same_bits_alone_and_in_a_mixed_stack(self):
        # Random drives from far below theta_2 to many squarings, every
        # class edge (the top one included), and generators that are NaN,
        # infinite or of 1-norm 2^53 (no drive and no detuning: |v dt| is
        # the 1-norm).
        rng = np.random.default_rng(976)
        rabi, detuning, phase, v = random_drive(rng, (40,))
        dt = np.geomspace(1e-5, 30.0, 40)
        edges = np.outer(propagate._THETAS, 1.0 + np.array([-1.0, 0.0, 1.0]) * 2.0**-52)
        extra = np.concatenate((edges.ravel(), [np.nan, np.inf, 2.0**53]))
        rabi, detuning = (np.concatenate((x, np.zeros(len(extra)))) for x in (rabi, detuning))
        phase = np.concatenate((phase, rng.uniform(-math.pi, math.pi, len(extra))))
        v = np.concatenate((v, -extra))
        dt = np.concatenate((dt, np.ones(len(extra))))
        _, triple = gauged_blocks(rabi * dt, detuning * dt, v * dt, dt.shape)
        norm = propagate._one_norm(triple)
        classes = np.searchsorted(propagate._THETAS[:-1], norm)
        assert set(classes) == {0, 1, 2, 3} and np.isnan(norm).any()
        # A two-axis stack: the classes are gathered along both.
        drive = [x.reshape(5, -1) for x in (rabi, detuning, phase, v, dt)]
        with np.errstate(over="ignore", invalid="ignore"):
            whole = sector_step(*drive)
            for index in np.ndindex(drive[0].shape):
                alone = sector_step(*(x[index] for x in drive))
                for single, block in zip(alone, whole.at(index)):
                    assert single.tobytes() == np.ascontiguousarray(block).tobytes()
        out_of_range = ~(norm.reshape(5, -1) < 2.0**53)
        assert np.isnan(whole.triple[..., out_of_range]).all()

    @pytest.mark.parametrize("index", range(3))
    def test_a_short_series_matches_the_degree_12_series(self, index):
        # Each lower degree against the top degree (12 in x) under scaling
        # and squaring, within the rounding of either: the series differ
        # by less than 2^-53.
        rng = np.random.default_rng(977)
        norms = propagate._THETAS[index] * np.geomspace(1e-3, 1.0, 9)
        x = np.stack([symmetric_with_norm(rng, norm) for norm in norms], axis=-1)
        short = propagate._rotation(x, propagate._DEGREES[index])
        top = propagate._scaling_and_squaring(
            x,
            propagate._one_norm(x),
            functools.partial(propagate._rotation, degree=propagate._DEGREES[-1]),
            propagate._THETAS[-1],
        )
        np.testing.assert_allclose(short, top, rtol=0.0, atol=2e-16)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_an_empty_stack_gives_empty_blocks(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = sector_step(np.zeros(shape), np.zeros(shape), 0.3, 2.0, 0.1)
            rotation = propagate._real_rotation(np.zeros((3, 3) + shape))
        assert step.pair.shape == (2, 2) + shape and step.triple.shape == (3, 3) + shape
        assert step.anti.shape == shape and rotation.shape == (3, 3) + shape


def decayed(drive, gamma):
    """The drive with decay gamma as the imaginary part of its detuning."""
    rabi, detuning, *rest = drive
    return (rabi, np.asarray(detuning) - 1j * gamma, *rest)


def decay_oracle(drive, dt, gamma) -> np.ndarray:
    """scipy expm of the full decay-modified 9x9 operator."""
    return expm(-1j * apply_decay(drive_hamiltonian(*drive), DecaySpec(gamma=gamma)) * dt)


class TestDecayedStep:
    """sector_step at a complex detuning against expm of apply_decay(drive_hamiltonian(...))."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 5.0])
    def test_matches_expm_of_full_operator(self, gamma):
        rng = np.random.default_rng(940)
        drive = random_drive(rng, (6,))
        dt = rng.uniform(0.0, 2.0, 6)
        actual = sector_unitary(sector_step(*decayed(drive, gamma), dt))
        for index in range(6):
            expected = decay_oracle([x[index] for x in drive], dt[index], gamma)
            np.testing.assert_allclose(actual[index], expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("phase", [0.0, 1.1])
    def test_pair_block_exceptional_point(self, phase):
        # Detuning 0 and rabi = gamma: w^2 = |c|^2 + (Delta - i gamma)^2 / 4 = 0.
        gamma = 0.8
        drive = (gamma, 0.0, phase, 2.0)
        for dt in (0.1, 1.0, 7.0):
            actual = sector_unitary(sector_step(*decayed(drive, gamma), dt))
            np.testing.assert_allclose(
                actual, decay_oracle(drive, dt, gamma), rtol=0.0, atol=1e-12
            )

    def test_long_duration(self):
        drive = random_drive(np.random.default_rng(941), (4,))
        actual = sector_unitary(sector_step(*decayed(drive, 0.05), 400.0))
        for index in range(4):
            expected = decay_oracle([x[index] for x in drive], 400.0, 0.05)
            np.testing.assert_allclose(actual[index], expected, rtol=0.0, atol=1e-12)

    def test_large_decay_stays_finite(self):
        # Multiplier 1e5 over a 5 MHz segment: gamma dt is about 620.
        gamma = DecaySpec.from_multiplier(1e5).gamma
        schedule = standard_schedule(1.65, 2.0 * math.pi * 5.0 / 1.65, units="mhz")
        for segment in schedule.segments:
            drive = (segment.rabi, segment.detuning, segment.phase, schedule.interaction)
            actual = sector_unitary(sector_step(*decayed(drive, gamma), segment.duration))
            assert np.all(np.isfinite(actual))
            expected = decay_oracle(drive, segment.duration, gamma)
            np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    def test_non_finite_generator_gives_a_nan_step(self, monkeypatch):
        # gamma dt = 1e308 * 10 overflows -i dt H_eff to inf: the pair and
        # triple steps are NaN, taken without squarings.
        products = counting_products(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            step = sector_step(1.0, -1e308j, 0.3, 2.0, 10.0)
        assert np.isnan(step.pair).all() and np.isnan(step.triple).all()
        assert len(products) == 2 * 5

    def test_large_decay_curve_matches_the_full_operator_path(self):
        # The value the full 9x9 expm path gives for this curve point.
        result = experiments.run_decay_curves(
            rabi_frequencies=(2.0 * math.pi * 5.0,),
            multiplier_grid=[1e5],
            compare_time_optimal=False,
        )
        assert result.rows[0]["fidelity"] == pytest.approx(0.44917705961784343, abs=1e-9)
