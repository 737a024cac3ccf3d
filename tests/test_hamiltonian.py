"""Tests for operator construction and its decay/thermal variants."""

import math

import numpy as np
import pytest

from rydgate.errors import DegenerateGeometryError, InvalidParameterError
from rydgate.hamiltonian import (
    SUBSPACE_LABELS,
    apply_decay,
    build_full,
    build_subspace,
    drive_hamiltonian,
    is_hermitian,
    subspace_basis,
    thermal_interaction,
)
from rydgate.model import (
    BASE_DECAY_RATE,
    EXCITATION_COUNT,
    DecaySpec,
    PulseSegment,
    ThermalSpec,
    basis_index,
)


def random_segment(rng) -> PulseSegment:
    return PulseSegment(
        rabi=float(rng.uniform(0.0, 8.0)),
        detuning=float(rng.uniform(-4.0, 4.0)),
        phase=float(rng.uniform(-math.pi, math.pi)),
        duration=float(rng.uniform(0.1, 2.0)),
    )


def kron_hamiltonian(segment: PulseSegment, v: float) -> np.ndarray:
    """kron(h1, 1) + kron(1, h1) + V |rr><rr| for the single-atom drive h1."""
    single = np.zeros((3, 3), dtype=complex)
    single[1, 2] = 0.5 * segment.rabi * np.exp(1j * segment.phase)
    single[2, 1] = np.conj(single[1, 2])
    single[2, 2] = segment.detuning
    identity = np.eye(3, dtype=complex)
    full = np.kron(single, identity) + np.kron(identity, single)
    full[8, 8] += v
    return full


def kron_state(label: str) -> np.ndarray:
    """Product state of two single-atom levels; "R" is (|1r> + |r1>)/sqrt(2)."""
    if label == "R":
        return (kron_state("1r") + kron_state("r1")) / math.sqrt(2.0)
    first, second = (np.eye(3)["01r".index(level)] for level in label)
    return np.kron(first, second)


class TestFullOperator:
    def test_pinned_coupling_element(self):
        segment = PulseSegment(rabi=2.0, detuning=0.0, phase=math.pi / 2.0, duration=1.0)
        h = build_full(segment, 0.0)
        assert h[basis_index("01"), basis_index("0r")] == pytest.approx(1j)
        assert h[basis_index("0r"), basis_index("01")] == pytest.approx(-1j)

    @pytest.mark.parametrize("seed", range(8))
    def test_hermitian_for_random_segments(self, seed):
        rng = np.random.default_rng(200 + seed)
        h = build_full(random_segment(rng), float(rng.uniform(0.0, 12.0)))
        assert h.shape == (9, 9)
        assert is_hermitian(h)

    def test_interaction_only_on_double_occupation(self):
        segment = PulseSegment(rabi=0.0, detuning=0.0, phase=0.0, duration=1.0)
        h = build_full(segment, 7.0)
        expected = np.zeros((9, 9))
        expected[8, 8] = 7.0
        np.testing.assert_allclose(h, expected)

    def test_detuning_counts_excitations(self):
        segment = PulseSegment(rabi=0.0, detuning=-1.5, phase=0.0, duration=1.0)
        h = build_full(segment, 4.0)
        diagonal = np.real(np.diag(h))
        expected = -1.5 * EXCITATION_COUNT.astype(float)
        expected[8] += 4.0
        np.testing.assert_allclose(diagonal, expected)

    def test_coupling_moves_single_atom(self):
        segment = PulseSegment(rabi=3.0, detuning=0.0, phase=0.4, duration=1.0)
        h = build_full(segment, 0.0)
        coupling = 0.5 * 3.0 * np.exp(0.4j)
        # second atom 1 -> r with the first atom fixed
        assert h[basis_index("01"), basis_index("0r")] == pytest.approx(coupling)
        assert h[basis_index("11"), basis_index("1r")] == pytest.approx(coupling)
        assert h[basis_index("r1"), basis_index("rr")] == pytest.approx(coupling)
        # first atom 1 -> r with the second atom fixed
        assert h[basis_index("10"), basis_index("r0")] == pytest.approx(coupling)
        assert h[basis_index("11"), basis_index("r1")] == pytest.approx(coupling)
        assert h[basis_index("1r"), basis_index("rr")] == pytest.approx(coupling)
        # 0 levels never couple
        assert h[basis_index("00"), basis_index("01")] == 0.0
        assert h[basis_index("00"), basis_index("0r")] == 0.0


    @pytest.mark.parametrize("seed", range(8))
    def test_equals_kron_assembly_exactly(self, seed):
        rng = np.random.default_rng(250 + seed)
        segment = random_segment(rng)
        v = float(rng.uniform(0.0, 12.0))
        np.testing.assert_array_equal(build_full(segment, v), kron_hamiltonian(segment, v))

    def test_stack_matches_one_operator_per_element(self):
        rng = np.random.default_rng(260)
        segments = [random_segment(rng) for _ in range(5)]
        rabi, detuning, phase = (
            np.array([getattr(s, name) for s in segments])
            for name in ("rabi", "detuning", "phase")
        )
        v = rng.uniform(0.0, 12.0, size=5)
        stack = drive_hamiltonian(rabi, detuning, phase, v)
        assert stack.shape == (5, 9, 9)
        for operator, segment, vi in zip(stack, segments, v):
            np.testing.assert_array_equal(operator, build_full(segment, vi))
        # scalars broadcast against the arrays
        shared = drive_hamiltonian(rabi, 0.5, 0.1, 3.0)
        for operator, r in zip(shared, rabi):
            np.testing.assert_array_equal(operator, drive_hamiltonian(r, 0.5, 0.1, 3.0))


class TestSubspaces:
    @pytest.mark.parametrize("which", sorted(SUBSPACE_LABELS))
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_match_projected_full_operator(self, which, seed):
        rng = np.random.default_rng(300 + seed)
        segment = random_segment(rng)
        v = float(rng.uniform(0.0, 9.0))
        basis = np.array([kron_state(label) for label in SUBSPACE_LABELS[which]])
        projected = basis @ kron_hamiltonian(segment, v) @ basis.T
        np.testing.assert_allclose(
            build_subspace(which, segment, v), projected, atol=1e-12
        )

    def test_symmetric_basis_rows_are_orthonormal(self):
        for which in SUBSPACE_LABELS:
            basis = subspace_basis(which)
            gram = basis @ basis.conj().T
            np.testing.assert_allclose(gram, np.eye(basis.shape[0]), atol=1e-15)

    def test_double_sector_coupling_is_enhanced(self):
        segment = PulseSegment(rabi=2.0, detuning=0.0, phase=0.0, duration=1.0)
        block = build_subspace("11", segment, 5.0)
        assert block.shape == (3, 3)
        assert block[0, 1] == pytest.approx(math.sqrt(2.0))
        assert block[1, 2] == pytest.approx(math.sqrt(2.0))
        assert block[2, 2] == pytest.approx(5.0)

    def test_unknown_sector_rejected(self):
        segment = PulseSegment(rabi=1.0, detuning=0.0, phase=0.0, duration=1.0)
        with pytest.raises(InvalidParameterError):
            build_subspace("0r", segment, 1.0)


class TestDecay:
    def test_apply_decay_lowers_excited_diagonals(self):
        segment = PulseSegment(rabi=1.0, detuning=0.5, phase=0.0, duration=1.0)
        h = build_full(segment, 3.0)
        spec = DecaySpec.from_multiplier(2.0)
        modified = apply_decay(h, spec)
        shift = np.diag(modified - h)
        np.testing.assert_allclose(
            shift, -1j * spec.gamma * EXCITATION_COUNT, atol=1e-15
        )
        assert spec.gamma == pytest.approx(2.0 * BASE_DECAY_RATE)

    def test_apply_decay_on_a_stack_matches_each_operator(self):
        rng = np.random.default_rng(270)
        stack = np.array([build_full(random_segment(rng), 2.0) for _ in range(4)])
        before = stack.copy()
        spec = DecaySpec.from_multiplier(3.0)
        modified = apply_decay(stack, spec)
        for out, h in zip(modified, stack):
            np.testing.assert_array_equal(out, apply_decay(h, spec))
        np.testing.assert_array_equal(stack, before)

    def test_apply_decay_requires_counts_for_other_shapes(self):
        with pytest.raises(InvalidParameterError):
            apply_decay(np.zeros((2, 2), dtype=complex), DecaySpec(gamma=0.1))


class TestThermalInteraction:
    def test_static_limit_returns_nominal(self):
        spec = ThermalSpec(
            equilibrium_distance=8.0, temperature=0.0, vibration_rate=3.0
        )
        assert thermal_interaction(0.37, 5.0, spec) == pytest.approx(5.0)

    def test_literal_and_physical_modes_are_reciprocal(self):
        literal = ThermalSpec(
            equilibrium_distance=6.0,
            temperature=20.0,
            vibration_rate=2.0,
            exponent_mode="literal",
        )
        physical = ThermalSpec(
            equilibrium_distance=6.0,
            temperature=20.0,
            vibration_rate=2.0,
            exponent_mode="physical",
        )
        t = 0.21
        a = thermal_interaction(t, 4.0, literal)
        b = thermal_interaction(t, 4.0, physical)
        assert a * b == pytest.approx(16.0)

    def test_literal_mode_matches_closed_form(self):
        spec = ThermalSpec(
            equilibrium_distance=8.0, temperature=20.0, vibration_rate=1.7
        )
        t = 0.9
        distance = 8.0 + math.sqrt(2.0) * math.sin(1.7 * t)
        assert thermal_interaction(t, 3.0, spec) == pytest.approx(
            3.0 * (distance / 8.0) ** 6
        )

    def test_requires_vibration_rate(self):
        spec = ThermalSpec(equilibrium_distance=8.0, temperature=20.0)
        with pytest.raises(InvalidParameterError):
            thermal_interaction(0.0, 1.0, spec)

    @pytest.mark.parametrize("mode", ["literal", "physical"])
    def test_array_of_times_matches_scalar_calls(self, mode):
        spec = ThermalSpec(
            equilibrium_distance=4.0, temperature=20.0, vibration_rate=37.0,
            exponent_mode=mode,
        )
        times = np.linspace(0.0, 1.3, 1001)
        values = thermal_interaction(times, 2.5, spec)
        assert values.shape == times.shape
        expected = [thermal_interaction(float(t), 2.5, spec) for t in times]
        np.testing.assert_array_equal(values, expected)

    @pytest.mark.parametrize("times", [1.5 * math.pi, np.array([0.1, 1.5 * math.pi, 0.2])])
    def test_atom_collision_raises(self, times):
        spec = ThermalSpec(
            equilibrium_distance=0.5,
            temperature=20.0,
            vibration_rate=1.0,
            waist=1.0,
        )
        # amplitude sqrt(2) exceeds the 0.5 separation at the trough,
        # a quarter period before the end of the first cycle
        with pytest.raises(DegenerateGeometryError, match="at t = 4.71"):
            thermal_interaction(times, 1.0, spec)
