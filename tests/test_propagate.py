"""Tests for the exact and substepped evolution engines."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from rydgate.errors import InvalidParameterError, ModeError
from rydgate.model import (
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
from rydgate.propagate import (
    _CHUNK,
    EXACT,
    SUBSTEPPED,
    IntegratorConfig,
    convergence_check,
    evolution_operator,
    propagate_density,
    propagate_state,
    resolve_config,
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

# Substep counts around the engine's batch size, so the last batch of a
# segment is full, short by one, or a single substep.
CHUNK_EDGE_SUBSTEPS = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1)


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


def oracle_step_operators(schedule: Schedule, substeps: int, gamma: float = 0.0):
    """Scalar midpoint rule, one substep at a time: the modulations are
    evaluated from their closed forms, H is built with kron, and every
    step is a scipy expm of the (decay-modified) H."""
    from rydgate.stochastic import sample_noise_trace

    noise = schedule.noise
    multipliers = sample_noise_trace(noise, len(schedule.segments)) if noise else None
    t_start = 0.0
    for index, segment in enumerate(schedule.segments):
        dt = segment.duration / substeps
        for k in range(substeps):
            t = t_start + (k + 0.5) * dt
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
            h = h - 1j * gamma * np.diag(EXCITATION_COUNT.astype(float))
            yield expm(-1j * h * dt)
        t_start += segment.duration


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

    @pytest.mark.parametrize("substeps", CHUNK_EDGE_SUBSTEPS)
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_substepped_operator_matches_scalar_oracle(self, kind, substeps):
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=substeps)
        expected = np.eye(9, dtype=complex)
        for step in oracle_step_operators(schedule, substeps):
            expected = step @ expected
        actual = evolution_operator(schedule, config)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    def test_evolution_operator_is_unitary(self):
        u = evolution_operator(standard_schedule(0.7, V))
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-12


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

    @pytest.mark.parametrize("substeps", CHUNK_EDGE_SUBSTEPS)
    @pytest.mark.parametrize("kind", ("noisy", "thermal", "phase-driven"))
    def test_decayed_substeps_match_scalar_oracle(self, kind, substeps):
        schedule = modulated_schedule(kind, substeps)
        config = IntegratorConfig(
            mode=SUBSTEPPED, substeps_per_segment=substeps, samples_per_segment=1
        )
        decay = DecaySpec.from_multiplier(5.0)
        psi = random_state(np.random.default_rng(79))
        expected = np.outer(psi, psi.conj())
        result = propagate_density(schedule, expected, decay, config)
        for step in oracle_step_operators(schedule, substeps, decay.gamma):
            expected = step @ expected @ step.conj().T
        np.testing.assert_allclose(result.final_state, expected, rtol=0.0, atol=1e-12)

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

    def test_requires_substepped_mode(self):
        with pytest.raises(ModeError):
            convergence_check(
                standard_schedule(1.0, V), basis_state("00"), IntegratorConfig()
            )

