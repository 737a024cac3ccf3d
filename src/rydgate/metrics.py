"""Phase extraction and fidelity measures for the two-atom gate.

Phase convention: a state that acquires exp(-i phi) relative to its
initial value has accumulated phase phi. The controlled phase is the
two-atom phase minus the two single-atom phases, wrapped into
(-2 pi, 0]; the gate target is a controlled phase of -pi on top of
whatever single-atom phases the schedule produced.

Gate fidelity is the linear trace overlap |tr(M T^dagger)| / 4 of the
computational block M with a 4x4 target T, capped at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UndefinedPhaseError
from .model import COMPUTATIONAL_INDICES, COMPUTATIONAL_LABELS, DIMENSION

TWO_PI = 2.0 * math.pi

# Overlap magnitudes at or below this are treated as phase-free.
OVERLAP_TOL = 1e-6

# Largest unitarity defect a gate target may have.
TARGET_UNITARITY_TOL = 1e-6


def accumulated_phase(initial, final) -> float:
    """Phase acquired by final relative to initial.

    Returns phi such that the overlap <final|initial> has argument phi,
    i.e. final ~ exp(-i phi) initial for a cyclic evolution. Raises
    UndefinedPhaseError when the overlap magnitude is at or below 1e-6.

    Example: final = exp(-i pi/2) * initial gives pi/2.
    """
    overlap = np.vdot(np.asarray(final, dtype=complex), np.asarray(initial, dtype=complex))
    if abs(overlap) <= OVERLAP_TOL:
        raise UndefinedPhaseError(
            f"overlap magnitude {abs(overlap):.3e} leaves the phase undefined"
        )
    return float(np.angle(overlap))


def wrap_controlled_phase(value):
    """Wrap a phase, or an array of phases, into the branch (-2 pi, 0]."""
    remainder = np.mod(value, TWO_PI)
    wrapped = np.where(remainder > 0.0, remainder - TWO_PI, 0.0)
    return float(wrapped) if wrapped.ndim == 0 else wrapped


def controlled_phase(phases) -> float:
    """Two-atom phase in excess of the single-atom phases.

    phases maps the labels '01', '10', '11' to accumulated phases. The
    result phi_11 - phi_10 - phi_01 is wrapped into (-2 pi, 0].
    """
    try:
        raw = phases["11"] - phases["10"] - phases["01"]
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidParameterError(
            "phases must map '01', '10' and '11' to floats"
        ) from exc
    return wrap_controlled_phase(float(raw))


def ideal_controlled_phase(
    delta_gamma: float, phi_01: float = 0.0, phi_10: float = 0.0
) -> np.ndarray:
    """Diagonal 4x4 target with the given controlled phase.

    The diagonal is (1, exp(-i phi_01), exp(-i phi_10), exp(-i phi_11))
    with phi_11 = phi_01 + phi_10 + delta_gamma, matching the
    acquired-phase convention of accumulated_phase.
    """
    phi_11 = phi_01 + phi_10 + delta_gamma
    return np.diag(np.exp(-1j * np.array([0.0, phi_01, phi_10, phi_11])))


def compensated_cz_target(phi_01: float, phi_10: float) -> np.ndarray:
    """Controlled-phase target of -pi on top of given single-atom phases."""
    return ideal_controlled_phase(-math.pi, phi_01, phi_10)


def _computational_block(matrix: np.ndarray) -> np.ndarray:
    if matrix.shape == (DIMENSION, DIMENSION):
        return matrix[np.ix_(COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES)]
    if matrix.shape == (4, 4):
        return matrix
    raise InvalidParameterError(
        f"expected a 9x9 or 4x4 operator, got shape {matrix.shape}"
    )


def gate_fidelity(actual, target) -> float:
    """Trace overlap |tr(M T^dagger)| / 4 with a 4x4 unitary target T.

    M is actual, a 4x4 operator or the computational block of a 9x9 one.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise InvalidParameterError(f"target must be 4x4, got shape {target.shape}")
    defect = np.max(np.abs(target.conj().T @ target - np.eye(4)))
    if defect > TARGET_UNITARITY_TOL:
        raise InvalidParameterError(f"target is not unitary (defect {defect:.3e})")
    block = _computational_block(np.asarray(actual, dtype=complex))
    return float(_score(abs(np.trace(block @ target.conj().T))))


def diagonal_fidelity(amplitudes, target) -> np.ndarray:
    """gate_fidelity of operators with a diagonal computational block, from
    its amplitudes (a00, a01, a10, a11) on a last axis over any stack, against
    a diagonal unitary target t given by its diagonal: |sum_j a_j conj(t_j)| / 4."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (4,) or np.max(np.abs(np.abs(target) ** 2 - 1.0)) > TARGET_UNITARITY_TOL:
        raise InvalidParameterError(f"target must be a unitary diagonal of 4 entries, got {target}")
    return _score(np.abs(np.sum(np.asarray(amplitudes, dtype=complex) * target.conj(), axis=-1)))


def _score(overlap):
    """Fidelity from the trace overlap magnitude |tr(M T^dagger)|."""
    return np.minimum(1.0, overlap / 4.0)


def compensated_fidelity(amplitudes) -> np.ndarray:
    """Fidelity against the compensated target, from the computational diagonal.

    amplitudes holds the diagonal amplitudes (a00, a01, a10, a11) of the
    computational block, over any leading stack axes; the result has the
    stack shape. It equals gate_fidelity(U, compensated_cz_target(phi_01,
    phi_10)) with phi_j = arg(conj(a_j)) without building the
    target: against T = diag(1, e^{-i phi_01}, e^{-i phi_10},
    e^{-i (phi_01 + phi_10 - pi)}) the trace tr(M T^dagger) collapses to
    a00 + |a01| + |a10| + |a11| e^{-i (phi_11 - phi_10 - phi_01 + pi)}.
    Returning states are not checked here.
    """
    magnitudes = np.abs(amplitudes)
    phases = np.angle(np.conj(amplitudes))
    raw = phases[..., 3] - phases[..., 2] - phases[..., 1]
    total = (
        amplitudes[..., 0]
        + magnitudes[..., 1]
        + magnitudes[..., 2]
        + magnitudes[..., 3] * np.exp(-1j * (raw + math.pi))
    )
    return _score(np.abs(total))


def state_fidelity(rho_final, rho_target) -> float:
    """Trace overlap |tr(rho_final rho_target)| of two density matrices."""
    rho_final = np.asarray(rho_final, dtype=complex)
    rho_target = np.asarray(rho_target, dtype=complex)
    if rho_final.shape != rho_target.shape or rho_final.ndim != 2:
        raise InvalidParameterError(
            f"shape mismatch: {rho_final.shape} vs {rho_target.shape}"
        )
    return float(abs(np.trace(rho_final @ rho_target)))


def conditional_state_fidelity(rho_final, rho_target) -> float:
    """Trace overlap renormalized by the surviving population.

    For dissipative runs this scores the state conditioned on no decay
    event, so a decay-free run against its own final state gives 1.
    """
    rho_final = np.asarray(rho_final, dtype=complex)
    survival = float(np.trace(rho_final).real)
    if survival <= 0.0:
        raise InvalidParameterError(f"surviving population {survival} is not positive")
    return state_fidelity(rho_final, rho_target) / survival


@dataclass(frozen=True)
class GateOutcome:
    """Phases, controlled phase, return probabilities, fidelity, leakage."""

    phases: dict
    delta_gamma: float
    return_probabilities: dict
    fidelity: float
    leakage: float

    @classmethod
    def from_summary(cls, summary: dict) -> GateOutcome:
        """The outcome of one operator from its gate_summary or
        diagonal_summary fields."""
        return cls(
            phases=dict(zip(COMPUTATIONAL_LABELS, summary["phases"].tolist())),
            delta_gamma=float(summary["delta_gamma"]),
            return_probabilities=dict(
                zip(COMPUTATIONAL_LABELS, summary["return_probabilities"].tolist())
            ),
            fidelity=float(summary["fidelity"]),
            leakage=float(summary["leakage"]),
        )

    def to_json_dict(self) -> dict:
        return {
            "phases": {k: float(v) for k, v in self.phases.items()},
            "delta_gamma": float(self.delta_gamma),
            "return_probabilities": {
                k: float(v) for k, v in self.return_probabilities.items()
            },
            "fidelity": float(self.fidelity),
            "leakage": float(self.leakage),
        }


_COMPUTATIONAL = np.array(COMPUTATIONAL_INDICES)


def gate_summary(operators) -> dict:
    """Gate summary of a stack of 9x9 evolution operators, as arrays.

    operators has shape S + (9, 9). "phases" and "return_probabilities"
    map to S + (4,) arrays in the order of COMPUTATIONAL_LABELS;
    "delta_gamma", "fidelity" and "leakage" map to arrays of shape S.
    Phases come from the diagonal amplitudes of the computational
    states; raises UndefinedPhaseError when any of them, in any
    operator, is non-cyclic (diagonal magnitude at or below 1e-6). The
    fidelity is compensated_fidelity, against a controlled phase of -pi
    on top of each operator's own single-atom phases. Leakage is one
    minus the mean computational-subspace population over the four
    computational columns.
    """
    operators = np.asarray(operators, dtype=complex)
    if operators.shape[-2:] != (DIMENSION, DIMENSION):
        raise InvalidParameterError(
            f"expected 9x9 operators, got shape {operators.shape}"
        )
    block = operators[..., _COMPUTATIONAL[:, None], _COMPUTATIONAL]
    retained = np.sum(np.abs(block) ** 2, axis=-2)
    return _summary(operators[..., _COMPUTATIONAL, _COMPUTATIONAL], retained)


def diagonal_summary(amplitudes) -> dict:
    """gate_summary of operators whose 4x4 computational block is
    diagonal, as every sector-form operator's is, from the diagonal
    amplitudes (a00, a01, a10, a11) on a last axis
    (propagate.computational_diagonal). Each computational column then
    keeps |a|^2 in the subspace, so the leakage is 1 - mean |a|^2; every
    field equals gate_summary's of the 9x9 operators bit for bit."""
    return _summary(np.asarray(amplitudes, dtype=complex))


def _summary(amplitudes, retained=None) -> dict:
    """The gate_summary fields from the computational diagonal
    amplitudes and the subspace population retained by each
    computational column (|a|^2 when None)."""
    magnitudes = np.abs(amplitudes)
    stranded = np.argwhere(magnitudes <= OVERLAP_TOL)
    if stranded.size:
        first = tuple(stranded[0])
        raise UndefinedPhaseError(
            f"state |{COMPUTATIONAL_LABELS[first[-1]]}> does not return "
            f"(amplitude {magnitudes[first]:.3e})"
        )
    populations = magnitudes**2
    retained = populations if retained is None else retained
    phases = np.angle(np.conj(amplitudes))
    return {
        "phases": phases,
        "delta_gamma": wrap_controlled_phase(
            phases[..., 3] - phases[..., 2] - phases[..., 1]
        ),
        "return_probabilities": np.minimum(1.0, populations),
        "fidelity": compensated_fidelity(amplitudes),
        "leakage": np.maximum(0.0, 1.0 - np.mean(retained, axis=-1)),
    }


def gate_outcome(operator) -> GateOutcome:
    """Summarize one 9x9 evolution operator as a gate.

    The fields are those of gate_summary.
    """
    operator = np.asarray(operator, dtype=complex)
    if operator.shape != (DIMENSION, DIMENSION):
        raise InvalidParameterError(
            f"expected a 9x9 operator, got shape {operator.shape}"
        )
    return GateOutcome.from_summary(gate_summary(operator))
