"""Tests for basis conventions, parameter specs, and schedules."""

import json
import math

import numpy as np
import pytest

from rydgate.errors import ConfigError, InvalidParameterError
from rydgate.model import (
    ALTERNATE_PHASE,
    BASIS_LABELS,
    COMPUTATIONAL_INDICES,
    COMPUTATIONAL_LABELS,
    DIMENSION,
    EXCITATION_COUNT,
    DecaySpec,
    NoiseSpec,
    PhaseDriveSpec,
    PulseSegment,
    Schedule,
    ThermalSpec,
    basis_index,
    basis_label,
    basis_state,
    check_density,
    check_state,
    cyclic_segment_duration,
    normalize_units,
    standard_schedule,
    time_optimal_schedule,
)
from rydgate.propagate import IntegratorConfig


class TestBasis:
    def test_labels_are_lexicographic(self):
        assert BASIS_LABELS == (
            "00", "01", "0r", "10", "11", "1r", "r0", "r1", "rr",
        )
        assert DIMENSION == 9

    def test_computational_subset(self):
        assert COMPUTATIONAL_LABELS == ("00", "01", "10", "11")
        assert COMPUTATIONAL_INDICES == (0, 1, 3, 4)
        for label, index in zip(COMPUTATIONAL_LABELS, COMPUTATIONAL_INDICES):
            assert BASIS_LABELS[index] == label

    def test_excitation_counts(self):
        expected = [label.count("r") for label in BASIS_LABELS]
        assert list(EXCITATION_COUNT) == expected

    @pytest.mark.parametrize("label", BASIS_LABELS)
    def test_label_index_round_trip(self, label):
        assert basis_label(basis_index(label)) == label

    def test_basis_state_is_unit_vector(self):
        state = basis_state("1r")
        assert state.shape == (9,)
        assert state[basis_index("1r")] == 1.0
        assert np.linalg.norm(state) == 1.0

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidParameterError):
            basis_index("02")

    @pytest.mark.parametrize("index", [4.9, True, np.bool_(True), 9, -1])
    def test_indices_that_are_not_basis_indices_are_rejected(self, index):
        # int() would take 4.9 as |11> (index 4) and True as |01>.
        for convert in (basis_state, basis_label):
            with pytest.raises(InvalidParameterError, match="basis index"):
                convert(index)

    @pytest.mark.parametrize("index", [4, np.int64(4), np.uint8(4)])
    def test_integer_indices_of_any_integer_type_are_accepted(self, index):
        assert basis_label(index) == "11"
        np.testing.assert_array_equal(basis_state(index), basis_state("11"))


class TestValidation:
    def test_check_state_accepts_unit_vector(self):
        state = np.zeros(9, dtype=complex)
        state[4] = 1.0
        out = check_state(state)
        assert out.dtype == complex

    def test_check_state_rejects_wrong_shape(self):
        with pytest.raises(InvalidParameterError):
            check_state(np.zeros(4))

    def test_check_state_rejects_overlong_vector(self):
        state = np.zeros(9, dtype=complex)
        state[0] = 1.5
        with pytest.raises(InvalidParameterError):
            check_state(state)

    def test_check_density_accepts_pure_projector(self):
        psi = np.zeros(9, dtype=complex)
        psi[1] = 1.0
        check_density(np.outer(psi, psi.conj()))

    def test_check_density_rejects_non_hermitian(self):
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = 0.5
        with pytest.raises(InvalidParameterError):
            check_density(rho)

    def test_check_density_rejects_negative_eigenvalue(self):
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.5
        rho[1, 1] = -0.5
        with pytest.raises(InvalidParameterError):
            check_density(rho)


class TestUnits:
    @pytest.mark.parametrize(
        "alias,expected",
        [("natural", "natural"), ("mhz", "mhz"), ("megahertz", "mhz"), ("MHz", "mhz")],
    )
    def test_aliases(self, alias, expected):
        assert normalize_units(alias) == expected

    def test_unknown_units_rejected(self):
        with pytest.raises(ConfigError):
            normalize_units("hz")


class TestSpecs:
    def test_pulse_segment_rejects_negative_rabi(self):
        with pytest.raises(InvalidParameterError):
            PulseSegment(rabi=-1.0, detuning=0.0, phase=0.0, duration=1.0)

    def test_pulse_segment_rejects_zero_duration(self):
        with pytest.raises(InvalidParameterError):
            PulseSegment(rabi=1.0, detuning=0.0, phase=0.0, duration=0.0)

    @pytest.mark.parametrize("field", ["rabi", "detuning", "phase", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_pulse_segment_rejects_non_finite_values(self, field, value):
        fields = {"rabi": 1.0, "detuning": 0.0, "phase": 0.0, "duration": 1.0}
        fields[field] = value
        with pytest.raises(InvalidParameterError):
            PulseSegment(**fields)

    @pytest.mark.parametrize("interaction", [-1.0, math.nan, math.inf, -math.inf])
    def test_schedule_rejects_bad_interaction(self, interaction):
        segments = standard_schedule(1.65, 2.0).segments
        with pytest.raises(InvalidParameterError):
            Schedule(segments=segments, interaction=interaction)

    @pytest.mark.parametrize("eta", [-0.01, 0.06])
    def test_noise_spec_amplitude_range(self, eta):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(eta_omega=eta)

    def test_noise_spec_rejects_negative_seed(self):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(seed=-1)

    def test_noise_spec_defaults(self):
        spec = NoiseSpec()
        assert spec.eta_omega == 0.0
        assert spec.eta_delta == 0.0
        assert spec.substeps == 100
        assert spec.seed == 12345

    def test_thermal_amplitude_scales_with_temperature(self):
        cold = ThermalSpec(equilibrium_distance=8.0, temperature=5.0)
        ref = ThermalSpec(equilibrium_distance=8.0, temperature=20.0)
        assert ref.amplitude == pytest.approx(math.sqrt(2.0))
        assert cold.amplitude == pytest.approx(math.sqrt(2.0 * 5.0 / 20.0))

    def test_thermal_rejects_unknown_exponent_mode(self):
        with pytest.raises(ConfigError):
            ThermalSpec(equilibrium_distance=8.0, temperature=1.0, exponent_mode="inverse")

    def test_decay_from_multiplier(self):
        spec = DecaySpec.from_multiplier(10.0)
        assert spec.gamma == pytest.approx(10.0 * 2.0 * math.pi * 0.01)
        with pytest.raises(InvalidParameterError):
            DecaySpec(gamma=-0.1)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: IntegratorConfig(convergence_tolerance=True), id="tolerance"),
            pytest.param(lambda: DecaySpec(gamma=True), id="decay-rate"),
            pytest.param(
                lambda: PulseSegment(rabi=True, detuning=False, phase=0.0, duration=True),
                id="segment",
            ),
            pytest.param(lambda: PulseSegment(1.0, 0.0, False, 1.0), id="segment-phase"),
        ],
    )
    def test_booleans_are_not_numbers(self, build):
        # float(True) is 1.0 and float(False) 0.0: a flag passed for a
        # number would otherwise run.
        with pytest.raises(InvalidParameterError, match="must be a real number, got (True|False)"):
            build()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_decay_rejects_non_finite_rates(self, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            DecaySpec(gamma=value)
        if value > 0.0:
            with pytest.raises(InvalidParameterError, match="finite"):
                DecaySpec.from_multiplier(value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("equilibrium_distance", math.inf),
            ("equilibrium_distance", math.nan),
            ("equilibrium_distance", 0.0),
            ("waist", math.nan),
            ("waist", math.inf),
            ("waist", -1.0),
            ("waist", 0.0),
            ("reference_temperature", math.inf),
            ("reference_temperature", math.nan),
            ("reference_temperature", 0.0),
            ("temperature", math.inf),
            ("temperature", math.nan),
            ("temperature", -1.0),
            ("vibration_rate", math.inf),
            ("vibration_rate", -math.inf),
            ("vibration_rate", math.nan),
        ],
    )
    def test_thermal_rejects_geometry_that_is_not_finite(self, field, value):
        # An infinite distance, a NaN waist or an infinite rate once made the
        # thermal fidelity NaN; an infinite temperature or a negative waist
        # ended as a DegenerateGeometryError.
        fields = {"equilibrium_distance": 8.0, "temperature": 20.0, field: value}
        with pytest.raises(InvalidParameterError, match=field):
            ThermalSpec(**fields)

    def test_thermal_accepts_finite_geometry(self):
        spec = ThermalSpec(
            equilibrium_distance=8.0, temperature=0.0, vibration_rate=-3.0, waist=2.0,
            reference_temperature=1e-3,
        )
        assert spec.amplitude == 0.0

    def test_phase_drive_evaluation(self):
        drive = PhaseDriveSpec(amplitude=2.0, angular_rate=3.0, offset=0.5)
        assert drive.phase_at(0.0) == pytest.approx(2.0 * math.cos(-0.5))
        assert drive.phase_at(1.0) == pytest.approx(2.0 * math.cos(3.0 - 0.5))
        np.testing.assert_array_equal(
            drive.phase_at(np.array([0.0, 1.0])), [drive.phase_at(0.0), drive.phase_at(1.0)]
        )


class TestSchedule:
    def test_standard_schedule_structure(self):
        v = 2.0 * math.pi
        schedule = standard_schedule(1.65, v)
        assert len(schedule.segments) == 4
        period = cyclic_segment_duration(1.65, v)
        for segment in schedule.segments:
            assert segment.rabi == pytest.approx(1.65 * v)
            assert segment.detuning == pytest.approx(-v / 2.0)
            assert segment.duration == pytest.approx(period)
        phases = [segment.phase for segment in schedule.segments]
        assert phases == [0.0, ALTERNATE_PHASE, 0.0, ALTERNATE_PHASE]
        assert ALTERNATE_PHASE == pytest.approx(-math.pi / 2.0)
        assert schedule.interaction == pytest.approx(v)

    def test_cyclic_segment_duration_formula(self):
        v = 2.0 * math.pi
        kappa = 1.65
        omega = kappa * v
        expected = 2.0 * math.pi / math.sqrt(4.0 * omega**2 + v**2 / 4.0)
        assert cyclic_segment_duration(kappa, v) == pytest.approx(expected)
        assert cyclic_segment_duration(kappa, v) == pytest.approx(0.29961075885598987)

    def test_cyclic_segment_duration_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            cyclic_segment_duration(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            cyclic_segment_duration(1.0, -1.0)

    @pytest.mark.parametrize("kappa,v", [(1e200, 1.0), (1.0, 1e-320)])
    def test_cyclic_segment_duration_rejects_unrepresentable_periods(self, kappa, v):
        # The squared drive overflows, or the generalized Rabi frequency
        # underflows to zero.
        with pytest.raises(InvalidParameterError):
            cyclic_segment_duration(kappa, v)

    def test_total_duration(self):
        schedule = standard_schedule(0.8, 3.0)
        assert schedule.total_duration == pytest.approx(
            4.0 * cyclic_segment_duration(0.8, 3.0)
        )

    def test_json_round_trip(self):
        schedule = standard_schedule(1.2, 5.0, units="mhz")
        clone = Schedule.from_json(schedule.to_json())
        assert clone == schedule

    @pytest.mark.parametrize("seed", range(4))
    def test_json_round_trip_random_schedules(self, seed):
        rng = np.random.default_rng(1000 + seed)
        segments = tuple(
            PulseSegment(
                rabi=float(rng.uniform(0.1, 10.0)),
                detuning=float(rng.uniform(-5.0, 5.0)),
                phase=float(rng.uniform(-math.pi, math.pi)),
                duration=float(rng.uniform(0.05, 2.0)),
            )
            for _ in range(rng.integers(1, 6))
        )
        schedule = Schedule(segments=segments, interaction=float(rng.uniform(0.5, 9.0)))
        clone = Schedule.from_json(schedule.to_json())
        assert clone == schedule

    def test_from_json_rejects_malformed_payload(self):
        with pytest.raises(ConfigError):
            Schedule.from_json("[1, 2, 3]")
        with pytest.raises(ConfigError):
            Schedule.from_json(json.dumps({"segments": []}))
        with pytest.raises(ConfigError):
            Schedule.from_json("not json at all")
        for segments in (5, "abc", {"rabi": 1.0}, None):
            with pytest.raises(ConfigError):
                Schedule.from_json(json.dumps({"segments": segments, "interaction": 1.0}))

    def test_rescaled_leaves_dimensionless_products_fixed(self):
        schedule = standard_schedule(1.65, 2.0 * math.pi)
        scaled = schedule.rescaled(2.5)
        for old, new in zip(schedule.segments, scaled.segments):
            assert new.rabi == pytest.approx(2.5 * old.rabi)
            assert new.detuning == pytest.approx(2.5 * old.detuning)
            assert new.duration == pytest.approx(old.duration / 2.5)
            assert new.rabi * new.duration == pytest.approx(old.rabi * old.duration)
        assert scaled.interaction == pytest.approx(2.5 * schedule.interaction)

    def test_rescaled_rejects_modulated_schedules(self):
        schedule = standard_schedule(1.65, 2.0 * math.pi)
        noisy = Schedule(
            segments=schedule.segments,
            interaction=schedule.interaction,
            noise=NoiseSpec(eta_omega=0.01),
        )
        with pytest.raises(InvalidParameterError):
            noisy.rescaled(2.0)

    def test_has_modulations(self):
        plain = standard_schedule(1.0, 1.0)
        assert not plain.has_modulations
        noisy = Schedule(
            segments=plain.segments,
            interaction=plain.interaction,
            noise=NoiseSpec(eta_delta=0.02),
        )
        assert noisy.has_modulations

    def test_time_optimal_schedule_shape(self):
        schedule = time_optimal_schedule()
        assert len(schedule.segments) == 1
        assert schedule.units == "mhz"
        assert schedule.phase_drive is not None
        assert schedule.has_modulations
        segment = schedule.segments[0]
        rabi = 2.0 * math.pi * 5.0
        assert segment.rabi == pytest.approx(rabi)
        assert segment.detuning == 0.0
        assert segment.duration == pytest.approx(2.43 * math.pi / rabi)
        assert schedule.interaction == pytest.approx(2.0 * math.pi * 450.0)
        drive = schedule.phase_drive
        assert drive.amplitude == pytest.approx(2.0 * math.pi * 0.1122)
        assert drive.angular_rate == pytest.approx(1.4031 * rabi)
        assert drive.offset == pytest.approx(-0.7318)
