"""Two-atom Hamiltonians: full nine-state operator, invariant-sector blocks,
non-Hermitian decay, and the vibrating-distance interaction.

The drive couples 1 <-> r on each atom with matrix element
(rabi/2) e^{i phase} on <.1|H|.r> (and the analogous element for the
other atom), the detuning sits on every Rydberg level, and the
interaction V sits on |rr>. The full operator never couples across the
four invariant sectors span{00}, span{01,0r}, span{10,r0}, and
span{11,1r,r1,rr}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateGeometryError, InvalidParameterError
from .model import (
    DIMENSION,
    EXCITATION_COUNT,
    DecaySpec,
    PulseSegment,
    ThermalSpec,
)

__all__ = [
    "SUBSPACE_LABELS",
    "build_full",
    "build_subspace",
    "subspace_basis",
    "apply_decay",
    "thermal_interaction",
    "is_hermitian",
]

# Sector basis labels; "R" is the symmetric single-excitation state
# (|1r> + |r1>)/sqrt(2).
SUBSPACE_LABELS = {
    "01": ("01", "0r"),
    "10": ("10", "r0"),
    "11": ("11", "R", "rr"),
}


def is_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= tol)


def build_full(segment: PulseSegment, v: float) -> np.ndarray:
    """Full 9x9 Hermitian operator for one constant drive segment."""
    coupling = 0.5 * segment.rabi * np.exp(1j * segment.phase)
    single = np.zeros((3, 3), dtype=complex)
    single[1, 2] = coupling
    single[2, 1] = np.conj(coupling)
    single[2, 2] = segment.detuning
    identity = np.eye(3, dtype=complex)
    full = np.kron(single, identity) + np.kron(identity, single)
    full[8, 8] += v
    return full


def build_subspace(which: str, segment: PulseSegment, v: float) -> np.ndarray:
    """Hamiltonian restricted to one invariant sector.

    "01" and "10" give the 2x2 block on {|01>,|0r>} or {|10>,|r0>};
    "11" gives the 3x3 block on {|11>,|R>,|rr>}, whose drive coupling is
    enhanced by sqrt(2) and whose |rr> energy is V + 2 Delta.
    """
    coupling = 0.5 * segment.rabi * np.exp(1j * segment.phase)
    if which in ("01", "10"):
        return np.array(
            [[0.0, coupling], [np.conj(coupling), segment.detuning]], dtype=complex
        )
    if which == "11":
        enhanced = math.sqrt(2.0) * coupling
        block = np.zeros((3, 3), dtype=complex)
        block[0, 1] = enhanced
        block[1, 0] = np.conj(enhanced)
        block[1, 2] = enhanced
        block[2, 1] = np.conj(enhanced)
        block[1, 1] = segment.detuning
        block[2, 2] = v + 2.0 * segment.detuning
        return block
    raise InvalidParameterError(f"unknown subspace {which!r}; expected '01', '10', or '11'")


def subspace_basis(which: str) -> np.ndarray:
    """Rows embedding a sector's basis vectors into the nine-state space."""
    if which not in SUBSPACE_LABELS:
        raise InvalidParameterError(f"unknown subspace {which!r}; expected '01', '10', or '11'")
    if which == "01":
        rows = [1, 2]
    elif which == "10":
        rows = [3, 6]
    else:
        rows = [4, None, 8]
    basis = np.zeros((len(rows), DIMENSION), dtype=complex)
    for i, row in enumerate(rows):
        if row is None:
            basis[i, 5] = basis[i, 7] = 1.0 / math.sqrt(2.0)
        else:
            basis[i, row] = 1.0
    return basis


def apply_decay(h: np.ndarray, decay: DecaySpec, excitations=None) -> np.ndarray:
    """Add -i * gamma per excited atom to the diagonal.

    The result generates contractive evolution: every eigenvalue has a
    non-positive imaginary part, and only diagonal imaginary parts
    change. For the 9x9 operator the per-label excitation counts are
    implied; smaller blocks need them passed explicitly.
    """
    if not decay.gamma >= 0.0:
        raise InvalidParameterError(f"decay rate must be >= 0, got {decay.gamma}")
    matrix = np.array(h, dtype=complex)
    if excitations is None:
        if matrix.shape != (DIMENSION, DIMENSION):
            raise InvalidParameterError(
                "excitation counts are required for non-9x9 operators"
            )
        counts = EXCITATION_COUNT
    else:
        counts = np.asarray(excitations, dtype=float)
        if counts.shape != (matrix.shape[0],):
            raise InvalidParameterError("excitation counts must match the operator dimension")
    matrix[np.diag_indices_from(matrix)] -= 1j * decay.gamma * counts
    return matrix


def thermal_interaction(t: float, v: float, spec: ThermalSpec) -> float:
    """Instantaneous interaction strength under distance vibration.

    The distance is D(t) = L + b * waist * sin(omega t) in length units
    of the waist. exponent_mode "literal" returns V (D/L)^6 and
    "physical" returns V (L/D)^6, the van der Waals sign of the same
    modulation. A non-positive distance raises DegenerateGeometryError.
    """
    if spec.vibration_rate is None:
        raise InvalidParameterError(
            "thermal spec has no vibration rate; set one or derive it from the schedule"
        )
    length = spec.equilibrium_distance * spec.waist
    distance = length + spec.amplitude * spec.waist * math.sin(spec.vibration_rate * t)
    if distance <= 0.0:
        raise DegenerateGeometryError(
            f"interatomic distance {distance} <= 0 at t = {t}"
        )
    ratio = distance / length
    if spec.exponent_mode == "physical":
        ratio = 1.0 / ratio
    return v * ratio**6
