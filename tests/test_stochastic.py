"""Tests for noise sampling, Monte-Carlo averages, and thermal fidelity."""

import dataclasses
import math

import numpy as np
import pytest

from rydgate import propagate, stochastic
from rydgate.errors import InvalidParameterError, UndefinedPhaseError
from rydgate.model import MAX_SUBSTEPS, NoiseSpec, ThermalSpec, noisy_drive, standard_schedule
from rydgate.stochastic import (
    MAX_TRIALS,
    monte_carlo_gate_fidelity,
    sample_noise_trace,
    thermal_gate_fidelity,
)
from rydgate.metrics import compensated_cz_target, diagonal_fidelity, gate_fidelity, gate_outcome
from rydgate.propagate import SUBSTEPPED, IntegratorConfig, evolution_operator, sector_step
from test_propagate import oracle_step_operators

V = 2.0 * math.pi

# Counts that int() once truncated (2.7 to 2), took as 1 (True) or
# failed on with a bare ValueError or TypeError.
NOT_INTEGERS = ["many", None, 2.7, 2.0, np.float64(3.0), "3", True, False, 1 + 0j]


class TestNoiseTrace:
    def test_shape_and_bounds(self):
        spec = NoiseSpec(eta_omega=0.04, eta_delta=0.02, substeps=30, seed=5)
        mult_omega, mult_delta = sample_noise_trace(spec, 4)
        assert mult_omega.shape == (4, 30)
        assert mult_delta.shape == (4, 30)
        assert np.all(mult_omega >= 1.0 - 0.04) and np.all(mult_omega <= 1.0 + 0.04)
        assert np.all(mult_delta >= 1.0 - 0.02) and np.all(mult_delta <= 1.0 + 0.02)

    def test_zero_amplitude_gives_exact_unity(self):
        spec = NoiseSpec(eta_omega=0.0, eta_delta=0.0, substeps=8, seed=11)
        mult_omega, mult_delta = sample_noise_trace(spec, 2)
        np.testing.assert_array_equal(mult_omega, np.ones((2, 8)))
        np.testing.assert_array_equal(mult_delta, np.ones((2, 8)))

    def test_seeded_reproducibility(self):
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=16, seed=123)
        first = sample_noise_trace(spec, 4)
        second = sample_noise_trace(spec, 4)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_drive_channel_drawn_first(self):
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.03, substeps=6, seed=99)
        mult_omega, mult_delta = sample_noise_trace(spec, 3)
        rng = np.random.default_rng(99)
        expected_omega = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=(3, 6))
        expected_delta = 1.0 + 0.03 * rng.uniform(-1.0, 1.0, size=(3, 6))
        np.testing.assert_array_equal(mult_omega, expected_omega)
        np.testing.assert_array_equal(mult_delta, expected_delta)

    def test_rejects_empty_schedule(self):
        with pytest.raises(InvalidParameterError):
            sample_noise_trace(NoiseSpec(), 0)

    @pytest.mark.parametrize("count", NOT_INTEGERS)
    def test_rejects_segment_counts_that_are_not_integers(self, count):
        with pytest.raises(InvalidParameterError, match="segment_count must be an integer"):
            sample_noise_trace(NoiseSpec(), count)


class TestCounts:
    """Counts are integers (numbers.Integral, not bool) at the library boundary."""

    @pytest.mark.parametrize("field", ["substeps", "seed"])
    @pytest.mark.parametrize("count", NOT_INTEGERS)
    def test_noise_spec_rejects_counts_that_are_not_integers(self, field, count):
        with pytest.raises(InvalidParameterError, match=f"noise {field} must be an integer"):
            NoiseSpec(**{field: count})

    @pytest.mark.parametrize("count", NOT_INTEGERS)
    def test_rejects_trials_that_are_not_integers(self, count):
        for spec in (NoiseSpec(), NoiseSpec(eta_omega=0.01, substeps=4)):
            with pytest.raises(InvalidParameterError, match="trials must be an integer"):
                monte_carlo_gate_fidelity(1.65, V, spec, count)

    def test_accepts_numpy_integers(self):
        spec = NoiseSpec(eta_omega=0.01, substeps=np.int64(3), seed=np.uint64(7))
        assert sample_noise_trace(spec, np.int32(2))[0].shape == (2, 3)
        result = monte_carlo_gate_fidelity(1.65, V, spec, np.int64(2))
        assert result.trials == 2 and len(result.fidelities) == 2


class TestMonteCarlo:
    def test_quiet_path_equals_nominal(self):
        result = monte_carlo_gate_fidelity(1.65, V, NoiseSpec(), 5)
        nominal = gate_outcome(evolution_operator(standard_schedule(1.65, V))).fidelity
        assert result.mean_fidelity == pytest.approx(nominal, abs=1e-12)
        assert result.std_fidelity == 0.0
        assert result.trials == 5
        assert len(result.fidelities) == 5

    def test_seeded_statistics_are_frozen(self):
        spec = NoiseSpec(eta_omega=0.03, eta_delta=0.02, substeps=50, seed=42)
        result = monte_carlo_gate_fidelity(1.65, V, spec, 10)
        assert result.mean_fidelity == pytest.approx(0.999332812949665, abs=1e-12)
        assert result.std_fidelity == pytest.approx(8.050273133615522e-05, abs=1e-12)
        assert result.fidelities[0] == pytest.approx(0.9991940805531143, abs=1e-12)

    def test_rerun_is_deterministic(self):
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.0, substeps=20, seed=8)
        first = monte_carlo_gate_fidelity(1.65, V, spec, 4)
        second = monte_carlo_gate_fidelity(1.65, V, spec, 4)
        assert first.fidelities == second.fidelities

    def test_noise_degrades_fidelity_only_slightly(self):
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=50, seed=21)
        result = monte_carlo_gate_fidelity(1.65, V, spec, 20)
        nominal = gate_outcome(evolution_operator(standard_schedule(1.65, V))).fidelity
        assert result.mean_fidelity < nominal
        assert result.mean_fidelity > 0.995

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(InvalidParameterError):
            monte_carlo_gate_fidelity(1.65, V, NoiseSpec(), 0)

    @pytest.mark.parametrize("eta", [0.0, 0.02])
    def test_a_nominal_gate_that_strands_a_state_is_rejected(self, eta, monkeypatch):
        # The nominal triple block sends |11> to |R>: no phase to compensate.
        stranded = propagate.SectorBlocks(
            np.eye(2, dtype=complex), np.eye(3, dtype=complex)[[1, 0, 2]], np.ones((), complex)
        )
        diagonal = propagate.computational_diagonal(stranded)
        monkeypatch.setattr(stochastic, "standard_diagonal", lambda *args: diagonal)
        spec = NoiseSpec(eta_omega=eta, eta_delta=eta, substeps=4, seed=1)
        with pytest.raises(UndefinedPhaseError, match=r"\|11> does not return"):
            monte_carlo_gate_fidelity(1.65, V, spec, 2)

    def test_json_payload(self):
        result = monte_carlo_gate_fidelity(1.65, V, NoiseSpec(), 2)
        payload = result.to_json_dict()
        assert set(payload) == {
            "mean_fidelity",
            "std_fidelity",
            "trials",
            "fidelities",
            "seed",
            "generator",
        }
        assert payload["generator"] == "PCG64"
        assert len(payload["fidelities"]) == 2


def replayed_fidelities(spec: NoiseSpec, trials: int) -> list:
    """One evolution_operator per trial of the schedule reseeded with that
    trial's SeedSequence seed, scored by gate_fidelity."""
    schedule = standard_schedule(1.65, V)
    nominal = gate_outcome(evolution_operator(schedule))
    target = compensated_cz_target(nominal.phases["01"], nominal.phases["10"])
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=spec.substeps)
    seeds = np.random.SeedSequence(spec.seed).generate_state(trials, dtype=np.uint64)
    return [
        gate_fidelity(
            evolution_operator(
                dataclasses.replace(schedule, noise=dataclasses.replace(spec, seed=int(seed))),
                config,
            ),
            target,
        )
        for seed in seeds
    ]


class TestBatchedTrials:
    """Monte-Carlo trials stacked in batches against one replay per trial."""

    # 4 segments x 16 substeps: 128 trials fill one batch of 4 x 2,048 steps.
    SPEC = NoiseSpec(eta_omega=0.05, eta_delta=0.04, substeps=16, seed=31)
    BATCH = 4 * propagate._BATCH_BLOCKS // (4 * 16)

    def test_each_trial_equals_its_replay(self):
        result = monte_carlo_gate_fidelity(1.65, V, self.SPEC, 5)
        np.testing.assert_allclose(
            result.fidelities, replayed_fidelities(self.SPEC, 5), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("trials", [1, BATCH - 1, BATCH, BATCH + 1])
    def test_trials_do_not_depend_on_the_batch_split(self, trials):
        longest = monte_carlo_gate_fidelity(1.65, V, self.SPEC, self.BATCH + 1)
        result = monte_carlo_gate_fidelity(1.65, V, self.SPEC, trials)
        assert result.fidelities == longest.fidelities[:trials]
        assert result.mean_fidelity == pytest.approx(np.mean(result.fidelities), abs=1e-15)

    # Batches of 2, 3, 3 and 1 trials of 64 steps, none sliced along
    # time: each trial has the bits it has at the default budget.
    @pytest.mark.parametrize(
        "blocks, rows", [(16 * 3 - 1, 2), (16 * 3, 3), (16 * 3 + 1, 3), (16, 1)]
    )
    def test_batch_bound_does_not_change_trials(self, blocks, rows, monkeypatch):
        default = monte_carlo_gate_fidelity(1.65, V, self.SPEC, 7).fidelities
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        assert next(propagate.row_batches(7, 64)).stop == rows
        assert monte_carlo_gate_fidelity(1.65, V, self.SPEC, 7).fidelities == default

    @pytest.mark.parametrize("trials", [BATCH, BATCH + 3])
    def test_each_row_of_a_batch_drive_is_its_trials_noisy_drive(self, trials, monkeypatch):
        # The drive of every batch, a full one and a partial one, against
        # each trial's own trace, bit for bit; the drive channel of a
        # fresh generator is drawn first.
        drives, original = [], stochastic.row_products

        def recording(drive, rows, steps):
            def recorded(batch):
                inputs = drive(batch)
                drives.append((batch, inputs[0], inputs[1]))
                return inputs

            return original(recorded, rows, steps)

        monkeypatch.setattr(stochastic, "row_products", recording)
        monte_carlo_gate_fidelity(1.65, V, self.SPEC, trials)
        assert [(batch.start, len(rabi)) for batch, rabi, _ in drives] == [
            (start, min(self.BATCH, trials - start)) for start in range(0, trials, self.BATCH)
        ]
        schedule = standard_schedule(1.65, V)
        segment_rabi = np.array([s.rabi for s in schedule.segments])[:, None]
        seeds = np.random.SeedSequence(self.SPEC.seed).generate_state(trials, dtype=np.uint64)
        for batch, rabi, detuning in drives:
            for row, seed in enumerate(seeds[batch]):
                spec = dataclasses.replace(self.SPEC, seed=int(seed))
                expected_rabi, expected_detuning = noisy_drive(schedule, spec)
                np.testing.assert_array_equal(rabi[row], expected_rabi.ravel())
                np.testing.assert_array_equal(detuning[row], expected_detuning.ravel())
                first = np.random.default_rng(int(seed)).uniform(-1.0, 1.0, size=(4, 16))
                drawn = segment_rabi * (1.0 + self.SPEC.eta_omega * first)
                np.testing.assert_array_equal(rabi[row], drawn.ravel())

    # Batches of 4, 20 and 60 steps: each trial of 64 steps is sliced.
    @pytest.mark.parametrize("blocks", [1, 5, 15])
    def test_trial_longer_than_a_batch_is_split_along_time(self, blocks, monkeypatch):
        monkeypatch.setattr(propagate, "_BATCH_BLOCKS", blocks)
        result = monte_carlo_gate_fidelity(1.65, V, self.SPEC, 3)
        np.testing.assert_allclose(
            result.fidelities, replayed_fidelities(self.SPEC, 3), rtol=0.0, atol=1e-12
        )

    def test_rejects_trials_above_limit(self):
        with pytest.raises(InvalidParameterError, match="trials must lie in"):
            monte_carlo_gate_fidelity(1.65, V, self.SPEC, MAX_TRIALS + 1)
        with pytest.raises(InvalidParameterError, match="trials must lie in"):
            monte_carlo_gate_fidelity(1.65, V, NoiseSpec(), MAX_TRIALS + 1)

    def test_noise_substeps_above_limit_rejected(self):
        NoiseSpec(substeps=MAX_SUBSTEPS)
        with pytest.raises(InvalidParameterError, match="noise substeps"):
            NoiseSpec(substeps=MAX_SUBSTEPS + 1)


def oracle_operator(schedule, substeps: int) -> np.ndarray:
    """The product of the scalar scipy-expm steps of oracle_step_operators."""
    operator = np.eye(9, dtype=complex)
    for _, _, step in oracle_step_operators(schedule, substeps):
        operator = step @ operator
    return operator


class TestMonteCarloOracle:
    """Monte-Carlo trials against the scalar oracle, which shares only the
    noise draw with the engine: every step is a scipy expm of a
    kron-built Hamiltonian, one substep at a time, and the target is
    scored from the oracle's noise-free gate."""

    @pytest.mark.parametrize("substeps", [4, 7])
    def test_trials_match_the_scalar_oracle(self, substeps):
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.04, substeps=substeps, seed=53)
        schedule = standard_schedule(1.65, V)
        nominal = gate_outcome(oracle_operator(schedule, 1))
        target = compensated_cz_target(nominal.phases["01"], nominal.phases["10"])
        seeds = np.random.SeedSequence(spec.seed).generate_state(3, dtype=np.uint64)
        expected = [
            gate_fidelity(
                oracle_operator(
                    dataclasses.replace(schedule, noise=dataclasses.replace(spec, seed=int(seed))),
                    substeps,
                ),
                target,
            )
            for seed in seeds
        ]
        result = monte_carlo_gate_fidelity(1.65, V, spec, 3)
        np.testing.assert_allclose(result.fidelities, expected, rtol=0.0, atol=1e-12)


# The 4-point Gauss-Legendre rule on [-1, 1], whose 4 x 4 grid averages
# a noise substep over its two independent draws.
LEGENDRE_NODES, LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(4)


def noise_step_moments(segment, v: float, dt: float, spec: NoiseSpec):
    """The moments over one noise substep of a segment, from the noise
    model as NoiseSpec documents it: rabi (1 + eta_omega r) and detuning
    (1 + eta_delta s), with r and s independent and uniform on [-1, 1].

    Returns E[P], E[Q], E[P x conj P], E[Q x conj Q] and E[P x conj Q]
    for the substep's pair block P and triple block Q, each by 4 x 4
    Gauss-Legendre quadrature over (r, s)."""
    r, s = (x.ravel() for x in np.meshgrid(LEGENDRE_NODES, LEGENDRE_NODES, indexing="ij"))
    weights = np.outer(LEGENDRE_WEIGHTS, LEGENDRE_WEIGHTS).ravel() / 4.0
    rabi = segment.rabi * (1.0 + spec.eta_omega * r)
    detuning = segment.detuning * (1.0 + spec.eta_delta * s)
    pair, triple, _ = sector_step(rabi, detuning, segment.phase, v, dt)
    pair, triple = np.moveaxis(pair, -1, 0), np.moveaxis(triple, -1, 0)

    def kron(a, b):
        n = len(weights)
        return np.einsum("nij,nkl->nikjl", a, b.conj()).reshape(n, a.shape[1] * b.shape[1], -1)

    moments = (pair, triple, kron(pair, pair), kron(triple, triple), kron(pair, triple))
    return [np.einsum("n,n...->...", weights, x) for x in moments]


def noise_bracket(kappa: float, v: float, spec: NoiseSpec):
    """|E X| / 4 <= E[F] <= sqrt(E[F^2]) for the Monte-Carlo fidelity F =
    |X| / 4 of monte_carlo_gate_fidelity, and E[F^2], exactly in eta.

    X = conj(t00) + (conj(t01) + conj(t10)) p + conj(t11) q is linear in
    the pair entry p and the triple entry q of the gate. The substeps
    are independent, so each moment of the gate is the product of the
    moments of its substeps, last substep on the left; every substep of
    a segment shares its moments."""
    schedule, _, target = stochastic._nominal_gate(kappa, v)
    gate = None
    for segment in schedule.segments:
        dt = segment.duration / spec.substeps
        step = noise_step_moments(segment, v, dt, spec)
        moments = [np.linalg.matrix_power(m, spec.substeps) for m in step]
        gate = moments if gate is None else [m @ g for m, g in zip(moments, gate)]
    p, q, pp, qq, pq = (m[0, 0] for m in gate)
    c = target.conj()
    c0, c1, c3 = c[0], c[1] + c[2], c[3]
    mean = c0 + c1 * p + c3 * q
    square = (
        abs(c0) ** 2 + abs(c1) ** 2 * pp.real + abs(c3) ** 2 * qq.real
        + 2.0 * (c0 * np.conj(c1 * p) + c0 * np.conj(c3 * q) + c1 * np.conj(c3) * pq).real
    )
    return abs(mean) / 4.0, math.sqrt(square) / 4.0, square / 16.0


class TestNoiseMoments:
    """Monte-Carlo noise cells against the exact noise average of the
    oracle, which shares only the noise-free gate and sector_step with
    the engine: the mean fidelity lies in the bracket and the mean of F^2
    is E[F^2], each within 3 standard errors."""

    @pytest.mark.parametrize(
        "eta_omega, eta_delta, substeps, trials",
        [
            (0.05, 0.0, 100, 400),
            # Enough trials to tell eta_delta's 4.7e-6 from no noise.
            (0.0, 0.05, 100, 1200),
            (0.05, 0.05, 100, 400),
            # One substep a segment: cheap trials whose F^2 resolves the
            # correlation of the two channels.
            (0.05, 0.05, 1, 4000),
        ],
    )
    def test_monte_carlo_cells_match_the_exact_moments(
        self, eta_omega, eta_delta, substeps, trials
    ):
        spec = NoiseSpec(eta_omega=eta_omega, eta_delta=eta_delta, substeps=substeps, seed=3712)
        lower, upper, square = noise_bracket(1.65, V, spec)
        fidelities = np.array(monte_carlo_gate_fidelity(1.65, V, spec, trials).fidelities)
        error = fidelities.std(ddof=1) / math.sqrt(trials)
        assert lower - 3.0 * error <= fidelities.mean() <= upper + 3.0 * error
        squares = fidelities**2
        assert abs(squares.mean() - square) <= 3.0 * squares.std(ddof=1) / math.sqrt(trials)
        if eta_omega == 0.0:
            noise_free = float(diagonal_fidelity(*stochastic._nominal_gate(1.65, V)[1:]))
            assert upper + 3.0 * error < noise_free


class TestThermal:
    def test_zero_temperature_equals_nominal(self):
        spec = ThermalSpec(equilibrium_distance=8.0, temperature=0.0)
        nominal = gate_outcome(evolution_operator(standard_schedule(1.65, V))).fidelity
        assert thermal_gate_fidelity(1.65, V, spec) == pytest.approx(nominal, abs=1e-12)

    def test_explicit_rate_matches_derived_default(self):
        schedule = standard_schedule(1.65, V)
        rate = 50.0 * (2.0 * math.pi / schedule.segments[0].duration)
        implicit = ThermalSpec(equilibrium_distance=8.0, temperature=20.0)
        explicit = ThermalSpec(
            equilibrium_distance=8.0, temperature=20.0, vibration_rate=rate
        )
        a = thermal_gate_fidelity(1.65, V, implicit, substeps=200)
        b = thermal_gate_fidelity(1.65, V, explicit, substeps=200)
        assert a == b

    def test_reference_fidelities(self):
        warm = ThermalSpec(equilibrium_distance=8.0, temperature=20.0)
        close = ThermalSpec(equilibrium_distance=4.0, temperature=20.0)
        cold = ThermalSpec(equilibrium_distance=8.0, temperature=1.0)
        assert thermal_gate_fidelity(1.65, V, warm) == pytest.approx(
            0.9626410772693798, abs=1e-9
        )
        assert thermal_gate_fidelity(1.65, V, close) == pytest.approx(
            0.7551396604910531, abs=1e-9
        )
        assert thermal_gate_fidelity(1.65, V, cold) == pytest.approx(
            0.9992665659424076, abs=1e-9
        )

    @pytest.mark.parametrize("distance, temperature", [(4.0, 20.0), (6.0, 10.0), (8.0, 1.0)])
    def test_equals_gate_fidelity_of_the_thermal_operator(self, distance, temperature):
        schedule = standard_schedule(1.65, V)
        nominal = gate_outcome(evolution_operator(schedule))
        target = compensated_cz_target(nominal.phases["01"], nominal.phases["10"])
        spec = ThermalSpec(
            equilibrium_distance=distance,
            temperature=temperature,
            vibration_rate=50.0 * (2.0 * math.pi / schedule.segments[0].duration),
        )
        config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=200)
        operator = evolution_operator(dataclasses.replace(schedule, thermal=spec), config)
        assert thermal_gate_fidelity(1.65, V, spec, substeps=200) == pytest.approx(
            gate_fidelity(operator, target), rel=0.0, abs=1e-15
        )

    @pytest.mark.parametrize("substeps", [2.7, "200", None])
    def test_rejects_substeps_that_are_not_integers(self, substeps):
        # int() once truncated 2.7 to 2 substeps.
        spec = ThermalSpec(equilibrium_distance=8.0, temperature=20.0)
        with pytest.raises(InvalidParameterError, match="substeps_per_segment must be an integer"):
            thermal_gate_fidelity(1.65, V, spec, substeps=substeps)

    def test_colder_is_better(self):
        warm = ThermalSpec(equilibrium_distance=8.0, temperature=20.0)
        cold = ThermalSpec(equilibrium_distance=8.0, temperature=1.0)
        f_warm = thermal_gate_fidelity(1.65, V, warm, substeps=300)
        f_cold = thermal_gate_fidelity(1.65, V, cold, substeps=300)
        assert f_cold > f_warm
