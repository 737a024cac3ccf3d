"""Tests for sector phases, analytic propagators, and cyclic roots."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from rydgate.errors import InvalidParameterError, RootNotFoundError
from rydgate.geometry import (
    TwoLevelParams,
    chi,
    composite_cyclic_root,
    composite_objective,
    composite_return_probability,
    dressed_states,
    periods,
    sector_evolution,
    u10_analytic,
    u10_lab_frame,
    u11_analytic,
    u11_lab_frame,
)
from rydgate.hamiltonian import build_full
from rydgate.model import PulseSegment

V = 2.0 * math.pi
KAPPAS = (0.335, 0.5, 1.0, 1.65, 3.0)


class TestSectorPhase:
    def test_closed_form(self):
        assert chi(1.65) == pytest.approx(0.47062747947922046, abs=1e-12)
        assert chi(0.0) == pytest.approx(math.pi)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_formula(self, kappa):
        assert chi(kappa) == pytest.approx(
            math.pi / math.sqrt(16.0 * kappa**2 + 1.0)
        )

    def test_monotone_decreasing(self):
        values = [chi(k) for k in np.linspace(0.1, 60.0, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_ratio_rejected(self):
        with pytest.raises(InvalidParameterError):
            chi(-0.1)


class TestPeriods:
    def test_reference_values(self):
        t11, t10 = periods(1.65, V)
        assert t11 == pytest.approx(0.29961075885598987, abs=1e-12)
        assert t10 == pytest.approx(0.5800147905657416, abs=1e-12)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_formulas(self, kappa):
        omega = kappa * V
        delta = -V / 2.0
        t11, t10 = periods(kappa, V)
        assert t11 == pytest.approx(2.0 * math.pi / math.hypot(2.0 * omega, delta))
        assert t10 == pytest.approx(2.0 * math.pi / math.hypot(omega, delta))


class TestAnalyticPropagators:
    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2.0, -math.pi / 2.0, math.pi])
    def test_double_sector_matches_numeric_at_quarter_turns(self, kappa, phi):
        numeric = sector_evolution("11", kappa, V, phi)
        analytic = u11_lab_frame(kappa, phi)
        assert np.max(np.abs(numeric - analytic)) < 1e-8

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2.0, -1.3])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_single_sector_matches_numeric_everywhere(self, kappa, phi, scale):
        t11, _ = periods(kappa, V)
        duration = scale * t11
        numeric = sector_evolution("10", kappa, V, phi, duration=duration)
        analytic = u10_lab_frame(kappa, V, phi, duration=duration)
        assert np.max(np.abs(numeric - analytic)) < 1e-8

    @pytest.mark.parametrize("phi", [0.3, 1.1, -0.8])
    def test_double_sector_magnitudes_hold_off_axis(self, phi):
        numeric = sector_evolution("11", 1.65, V, phi)
        analytic = u11_lab_frame(1.65, phi)
        assert np.max(np.abs(np.abs(numeric) - np.abs(analytic))) < 1e-8

    def test_closed_form_unitary_only_at_quarter_turns(self):
        # The closed form's column overlap is sin(chi) sin(2 phi), so it
        # is unitary exactly at integer multiples of pi / 2.
        c = chi(1.65)
        for phi in (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi):
            u = u11_analytic(phi, c)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        for phi in (0.3, 1.0):
            u = u11_analytic(phi, c)
            overlap = abs((u.conj().T @ u)[0, 1])
            assert overlap == pytest.approx(
                abs(math.sin(c) * math.sin(2.0 * phi)), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_single_sector_form_is_always_unitary(self, seed):
        rng = np.random.default_rng(400 + seed)
        params = TwoLevelParams.from_drive(
            rabi=float(rng.uniform(0.1, 6.0)),
            detuning=float(rng.uniform(-3.0, 3.0)),
            duration=float(rng.uniform(0.1, 3.0)),
            phase=float(rng.uniform(-math.pi, math.pi)),
        )
        u = u10_analytic(params)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_mixing_angle_branch_keeps_cosine_positive(self):
        params = TwoLevelParams.from_drive(
            rabi=2.0, detuning=-1.0, duration=1.0, phase=0.0
        )
        assert math.cos(params.mixing_angle) > 0.0
        assert params.mixing_angle == pytest.approx(math.atan(2.0 / -1.0))
        resonant = TwoLevelParams.from_drive(
            rabi=2.0, detuning=0.0, duration=1.0, phase=0.0
        )
        assert resonant.mixing_angle == pytest.approx(math.pi / 2.0)

    def test_axis_is_unit_vector(self):
        params = TwoLevelParams.from_drive(
            rabi=1.3, detuning=0.7, duration=0.5, phase=0.9
        )
        assert np.linalg.norm(params.axis) == pytest.approx(1.0)


class TestDressedStates:
    @pytest.mark.parametrize("phi", [0.0, 0.7, -1.2, math.pi / 2.0])
    def test_pair_diagonalizes_one_period_evolution(self, phi):
        u = sector_evolution("11", 1.65, V, phi)
        bright, dark = dressed_states(phi)
        c = chi(1.65)
        loop = np.exp(-1j * (math.pi - c))
        assert np.max(np.abs(u @ dark - dark)) < 1e-12
        assert np.max(np.abs(u @ bright - loop * bright)) < 1e-12

    def test_pair_is_orthonormal(self):
        bright, dark = dressed_states(0.4)
        assert np.vdot(bright, bright) == pytest.approx(1.0)
        assert np.vdot(dark, dark) == pytest.approx(1.0)
        assert abs(np.vdot(bright, dark)) < 1e-15


class TestComposite:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_alternated_pair_is_proportional_to_identity(self, kappa):
        c = chi(kappa)
        pair = u11_analytic(math.pi / 2.0, c) @ u11_analytic(0.0, c)
        assert np.max(np.abs(pair - np.exp(-1j * c) * np.eye(2))) < 1e-10

    @pytest.mark.parametrize("which,rows", [("01", [1, 2]), ("10", [3, 6]), ("11", [4, 8])])
    @pytest.mark.parametrize(
        "kappa,phi,duration", [(0.335, 0.0, None), (1.65, -math.pi / 2.0, 0.37), (3.0, 2.1, 1.4)]
    )
    def test_single_sector_is_block_of_full_operator(self, which, rows, kappa, phi, duration):
        # Oracle: scipy expm of the full nine-state operator, restricted
        # to the sector's product states ({|11>, |rr>} for "11").
        t = periods(kappa, V)[0] if duration is None else duration
        segment = PulseSegment(rabi=kappa * V, detuning=-V / 2.0, phase=phi, duration=t)
        full = expm(-1j * build_full(segment, V) * t)
        block = full[np.ix_(rows, rows)]
        sector = sector_evolution(which, kappa, V, phi, duration)
        assert np.max(np.abs(sector - block)) < 1e-12

    def test_sector_evolution_is_unitary(self):
        for which in ("01", "10", "11"):
            u = sector_evolution(which, 1.3, V, 0.6)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12

    def test_objective_changes_sign_across_root(self):
        assert composite_objective(0.05) > 0.0
        assert composite_objective(1.0) < 0.0
        assert composite_objective(0.333) > 0.0 > composite_objective(0.334)

    def test_root_location(self):
        root = composite_cyclic_root()
        assert root == pytest.approx(0.3336978, abs=5e-6)

    def test_root_requires_sign_change(self):
        with pytest.raises(RootNotFoundError):
            composite_cyclic_root(bracket=(2.0, 3.0))

    def test_return_probability_is_one_at_root(self):
        root = composite_cyclic_root()
        assert composite_return_probability(root) == pytest.approx(1.0, abs=1e-9)

    def test_return_probability_below_one_off_root(self):
        assert composite_return_probability(0.8) < 0.999
