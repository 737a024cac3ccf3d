"""Tests for phase extraction, fidelities, and gate summaries."""

import json
import math

import numpy as np
import pytest

from rydgate.errors import InvalidParameterError, UndefinedPhaseError
from rydgate.metrics import (
    GateOutcome,
    accumulated_phase,
    compensated_cz_target,
    conditional_state_fidelity,
    controlled_phase,
    diagonal_summary,
    gate_fidelity,
    gate_outcome,
    gate_summary,
    ideal_controlled_phase,
    state_fidelity,
    wrap_controlled_phase,
)
from rydgate.model import basis_state, standard_schedule
from rydgate.propagate import (
    computational_diagonal,
    evolution_operator,
    sector_product,
    sector_unitary,
)

V = 2.0 * math.pi


def _random_unitary(rng):
    """Haar-like random 9x9 unitary; its diagonal entries all return."""
    z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestAccumulatedPhase:
    def test_acquired_phase_convention(self):
        psi = np.zeros(9, dtype=complex)
        psi[4] = 1.0
        final = np.exp(-1j * math.pi / 2.0) * psi
        assert accumulated_phase(psi, final) == pytest.approx(math.pi / 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_phases_recovered(self, seed):
        rng = np.random.default_rng(700 + seed)
        raw = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi = raw / np.linalg.norm(raw)
        phi = float(rng.uniform(-math.pi, math.pi))
        assert accumulated_phase(psi, np.exp(-1j * phi) * psi) == pytest.approx(phi)

    def test_orthogonal_states_have_no_phase(self):
        with pytest.raises(UndefinedPhaseError):
            accumulated_phase(basis_state("00"), basis_state("01"))


class TestControlledPhase:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (-math.pi, -math.pi),
            (math.pi, -math.pi),
            (0.1, 0.1 - 2.0 * math.pi),
            (-0.1, -0.1),
            (2.0 * math.pi, 0.0),
            (-2.0 * math.pi, 0.0),
            (5.0 * math.pi, -math.pi),
        ],
    )
    def test_wrap_branch(self, raw, expected):
        wrapped = wrap_controlled_phase(raw)
        assert wrapped == pytest.approx(expected)
        assert -2.0 * math.pi < wrapped <= 0.0

    def test_array_matches_scalar_calls(self):
        raw = np.array([0.0, -math.pi, math.pi, 0.1, -0.1, 2.0 * math.pi, 5.0 * math.pi, -7.3])
        wrapped = wrap_controlled_phase(raw.reshape(2, 4))
        assert wrapped.shape == (2, 4)
        assert wrapped.ravel().tolist() == [wrap_controlled_phase(float(r)) for r in raw]

    def test_combination(self):
        phases = {"01": 0.3, "10": -0.2, "11": 0.5}
        assert controlled_phase(phases) == pytest.approx(0.4 - 2.0 * math.pi)

    def test_missing_entry_rejected(self):
        with pytest.raises(InvalidParameterError):
            controlled_phase({"01": 0.1, "10": 0.2})


class TestTargets:
    def test_ideal_matrix_diagonal(self):
        target = ideal_controlled_phase(-math.pi, 0.25, -0.75)
        expected = np.diag(
            np.exp(-1j * np.array([0.0, 0.25, -0.75, 0.25 - 0.75 - math.pi]))
        )
        np.testing.assert_allclose(target, expected, atol=1e-15)

    def test_compensated_target_has_minus_pi_surplus(self):
        target = compensated_cz_target(0.4, 1.1)
        phases = {
            "01": float(np.angle(np.conj(target[1, 1]))),
            "10": float(np.angle(np.conj(target[2, 2]))),
            "11": float(np.angle(np.conj(target[3, 3]))),
        }
        assert controlled_phase(phases) == pytest.approx(-math.pi)


class TestGateFidelity:
    def test_identity_against_cz(self):
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert gate_fidelity(np.eye(4), cz) == pytest.approx(0.5)

    def test_perfect_match_is_one(self):
        target = ideal_controlled_phase(-math.pi, 0.2, 0.3)
        assert gate_fidelity(target, target) == pytest.approx(1.0)

    def test_nine_dim_operator_uses_computational_block(self):
        u = np.eye(9, dtype=complex)
        u[4, 4] = -1.0
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert gate_fidelity(u, cz) == pytest.approx(1.0)

    def test_rejects_non_unitary_target(self):
        with pytest.raises(InvalidParameterError):
            gate_fidelity(np.eye(4), np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            gate_fidelity(np.eye(3), np.eye(4, dtype=complex))


class TestStateFidelity:
    def test_pure_state_overlap(self):
        psi = basis_state("11")
        phi = (basis_state("11") + basis_state("10")) / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        sigma = np.outer(phi, phi.conj())
        assert state_fidelity(rho, sigma) == pytest.approx(0.5)
        assert state_fidelity(rho, rho) == pytest.approx(1.0)

    def test_conditional_rescales_by_survival(self):
        psi = basis_state("11")
        rho = 0.25 * np.outer(psi, psi.conj())
        target = np.outer(psi, psi.conj())
        assert state_fidelity(rho, target) == pytest.approx(0.25)
        assert conditional_state_fidelity(rho, target) == pytest.approx(1.0)

    def test_conditional_rejects_empty_state(self):
        with pytest.raises(InvalidParameterError):
            conditional_state_fidelity(np.zeros((9, 9)), np.eye(9) / 9.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            state_fidelity(np.eye(9), np.eye(4))


class TestGateOutcome:
    def test_nominal_gate_summary(self):
        outcome = gate_outcome(evolution_operator(standard_schedule(1.65, V)))
        assert outcome.delta_gamma == pytest.approx(-3.1514260051, abs=1e-9)
        assert outcome.fidelity == pytest.approx(0.9993107882, abs=1e-9)
        assert outcome.leakage == pytest.approx(1.3593722e-3, abs=1e-9)
        assert outcome.return_probabilities["00"] == pytest.approx(1.0, abs=1e-12)
        assert outcome.return_probabilities["11"] == pytest.approx(1.0, abs=1e-9)
        assert outcome.return_probabilities["01"] == pytest.approx(
            0.9972812555, abs=1e-9
        )
        assert outcome.return_probabilities["10"] == pytest.approx(
            0.9972812555, abs=1e-9
        )

    def test_leakage_complements_column_population(self):
        u = evolution_operator(standard_schedule(0.9, V))
        retained = []
        for column in (0, 1, 3, 4):
            kept = sum(abs(u[row, column]) ** 2 for row in (0, 1, 3, 4))
            retained.append(kept)
        outcome = gate_outcome(u)
        assert outcome.leakage == pytest.approx(1.0 - np.mean(retained), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_controlled_phase_is_gauge_invariant(self, seed):
        rng = np.random.default_rng(800 + seed)
        u = evolution_operator(standard_schedule(1.65, V))
        alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
        mu, nu = rng.uniform(-math.pi, math.pi, size=2)
        first = np.diag(np.exp(1j * np.array([alpha, beta, 0.0])))
        second = np.diag(np.exp(1j * np.array([mu, nu, 0.0])))
        gauge = np.kron(first, second)
        transformed = gauge @ u @ gauge.conj().T
        base = gate_outcome(u)
        rotated = gate_outcome(transformed)
        assert rotated.delta_gamma == pytest.approx(base.delta_gamma, abs=1e-9)
        assert rotated.fidelity == pytest.approx(base.fidelity, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_fidelity_equals_explicit_compensated_target(self, seed):
        # Oracle: the trace overlap with the compensated target matrix, built
        # from the phases gate_outcome reports.
        u = _random_unitary(np.random.default_rng(900 + seed))
        outcome = gate_outcome(u)
        target = compensated_cz_target(outcome.phases["01"], outcome.phases["10"])
        assert outcome.fidelity == pytest.approx(gate_fidelity(u, target), abs=1e-12)

    def test_stack_summary_matches_each_operator(self):
        rng = np.random.default_rng(77)
        operators = np.array(
            [evolution_operator(standard_schedule(k, V)) for k in (0.7, 1.65, 3.1)]
            + [_random_unitary(rng) for _ in range(3)]
        ).reshape(2, 3, 9, 9)
        summary = gate_summary(operators)
        assert summary["phases"].shape == (2, 3, 4)
        assert summary["fidelity"].shape == (2, 3)
        for index in np.ndindex(2, 3):
            outcome = gate_outcome(operators[index])
            assert summary["delta_gamma"][index] == pytest.approx(outcome.delta_gamma, abs=1e-15)
            assert summary["fidelity"][index] == pytest.approx(outcome.fidelity, abs=1e-15)
            assert summary["leakage"][index] == pytest.approx(outcome.leakage, abs=1e-15)
            np.testing.assert_allclose(
                summary["phases"][index], list(outcome.phases.values()), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                summary["return_probabilities"][index],
                list(outcome.return_probabilities.values()),
                rtol=0,
                atol=1e-15,
            )

    def test_diagonal_summary_equals_the_nine_by_nine_summary(self):
        # Sector-form operators of random drives over a (3, 50) stack.
        rng = np.random.default_rng(78)
        shape = (3, 50, 4)
        product = sector_product(
            rng.uniform(0.0, 8.0, shape),
            rng.uniform(-4.0, 4.0, shape),
            rng.uniform(-math.pi, math.pi, shape),
            rng.uniform(0.0, 10.0, shape),
            rng.uniform(0.0, 0.5, shape),
        )
        full = gate_summary(sector_unitary(product))
        diagonal = diagonal_summary(computational_diagonal(product))
        assert set(diagonal) == set(full)
        for name, value in full.items():
            np.testing.assert_array_equal(diagonal[name], value, err_msg=name)

    def test_diagonal_summary_rejects_a_stranded_state(self):
        amplitudes = np.ones((3, 4), dtype=complex)
        amplitudes[1, 2] = 1e-7
        with pytest.raises(UndefinedPhaseError, match=r"\|10> does not return"):
            diagonal_summary(amplitudes)

    def test_one_stranded_operator_rejects_the_stack(self):
        stranded = np.eye(9, dtype=complex)
        stranded[[3, 6], [3, 6]] = 0.0
        stranded[[3, 6], [6, 3]] = 1.0
        good = evolution_operator(standard_schedule(1.65, V))
        with pytest.raises(UndefinedPhaseError, match=r"\|10>"):
            gate_summary(np.array([good, stranded, good]))

    def test_non_cyclic_state_rejected(self):
        u = np.eye(9, dtype=complex)
        u[1, 1] = 0.0
        u[2, 2] = 0.0
        u[1, 2] = 1.0
        u[2, 1] = 1.0
        with pytest.raises(UndefinedPhaseError):
            gate_outcome(u)

    def test_json_payload_round_trips(self):
        outcome = gate_outcome(evolution_operator(standard_schedule(1.65, V)))
        payload = json.loads(json.dumps(outcome.to_json_dict()))
        assert set(payload) == {
            "phases",
            "delta_gamma",
            "return_probabilities",
            "fidelity",
            "leakage",
        }
        assert payload["delta_gamma"] == pytest.approx(outcome.delta_gamma)
        assert set(payload["phases"]) == {"00", "01", "10", "11"}

    def test_outcome_is_frozen(self):
        outcome = GateOutcome(
            phases={}, delta_gamma=0.0, return_probabilities={}, fidelity=1.0, leakage=0.0
        )
        with pytest.raises(AttributeError):
            outcome.fidelity = 0.5
