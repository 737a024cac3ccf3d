"""Two-atom Hamiltonians: full nine-state operator, invariant-sector blocks,
non-Hermitian decay, and the vibrating-distance interaction.

The drive couples 1 <-> r on each atom with matrix element
(rabi/2) e^{i phase} on <.1|H|.r> (and the analogous element for the
other atom), the detuning sits on every Rydberg level, and the
interaction V sits on |rr>. The full operator never couples across the
four invariant sectors span{00}, span{01,0r}, span{10,r0}, and
span{11,1r,r1,rr}. The last one splits further into span{11,R,rr} with
R = (|1r> + |r1>)/sqrt(2) and the antisymmetric state
(|1r> - |r1>)/sqrt(2), which the drive does not couple.

`drive_hamiltonian` writes the full operator, and `gauged_blocks` with
`sector_gauge` its sector blocks, where a complex detuning Delta - i
gamma is decay. Every engine exponentiates the blocks, decayed steps
included; the full operator and `apply_decay` are the oracles the tests
hold the blocks to.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateGeometryError, InvalidParameterError
from .model import (
    DIMENSION,
    EXCITATION_COUNT,
    HERMITICITY_TOL,
    DecaySpec,
    PulseSegment,
    ThermalSpec,
)

__all__ = [
    "SUBSPACE_LABELS",
    "check_subspace",
    "build_full",
    "drive_hamiltonian",
    "sector_gauge",
    "gauged_blocks",
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


def check_subspace(which: str) -> None:
    """Raise InvalidParameterError unless which names a sector: "01", "10" or "11"."""
    if which not in SUBSPACE_LABELS:
        raise InvalidParameterError(f"unknown subspace {which!r}; expected '01', '10', or '11'")


def is_hermitian(matrix: np.ndarray) -> bool:
    return bool(np.max(np.abs(matrix - matrix.conj().T)) <= HERMITICITY_TOL)


# Index pairs (bra, ket) where one atom moves from 1 to r while the other
# stays put: 01-0r, 11-1r, r1-rr for the second atom and 10-r0, 11-r1,
# 1r-rr for the first.
_COUPLED_PAIRS = (
    np.array([1, 4, 7, 3, 4, 5]),
    np.array([2, 5, 8, 6, 7, 8]),
)
_SINGLE_EXCITATION = np.flatnonzero(EXCITATION_COUNT == 1)


def drive_hamiltonian(rabi, detuning, phase, v) -> np.ndarray:
    """Full 9x9 Hermitian operators, stacked over the broadcast input shape.

    Scalars give one (9, 9) operator; arrays of a common shape S give an
    S + (9, 9) stack with one operator per element. The entries equal
    those of kron(h1, 1) + kron(1, h1) + V |rr><rr| for the single-atom
    operator h1, assembled by index assignment.
    """
    rabi, detuning, phase, v = np.broadcast_arrays(rabi, detuning, phase, v)
    coupling = 0.5 * rabi * np.exp(1j * phase)
    full = np.zeros(rabi.shape + (DIMENSION, DIMENSION), dtype=complex)
    bra, ket = _COUPLED_PAIRS
    full[..., bra, ket] = coupling[..., None]
    full[..., ket, bra] = np.conj(coupling)[..., None]
    full[..., _SINGLE_EXCITATION, _SINGLE_EXCITATION] = detuning[..., None]
    # |rr>: summed in the order of the kron form, so the entry matches it exactly.
    full[..., 8, 8] = (detuning + detuning) + v
    return full


def build_full(segment: PulseSegment, v: float) -> np.ndarray:
    """Full 9x9 Hermitian operator for one constant drive segment."""
    return drive_hamiltonian(segment.rabi, segment.detuning, segment.phase, v)


_GAUGE_POWERS = np.arange(3.0)


def sector_gauge(phase) -> np.ndarray:
    """The gauge (1, e^{-i phase}, e^{-2i phase}) of the sector blocks,
    stacked on a first axis: (3, *shape of phase). The block B of
    gauged_blocks is G B G^dagger at the phase, G = diag(gauge) (its
    leading 2 x 2 part for the pair block)."""
    return np.exp(-1j * np.multiply.outer(_GAUGE_POWERS, phase))


def gauged_blocks(rabi, detuning, v, rank: int = 0):
    """The sector blocks of drive_hamiltonian at phase 0, held matrix
    axes first, each over the broadcast shape of its own inputs with
    leading size-1 axes up to `rank` axes: pair (2, 2, *shape of rabi
    and detuning) on {|01>,|0r>}, which equals the block on {|10>,|r0>},
    and triple (3, 3, *shape of all three) on {|11>,|R>,|rr>}.

    The drive coupling is rabi / 2, enhanced by sqrt(2) on both links of
    the triple, and |rr> carries V + 2 Delta. |00> has energy 0 and the
    antisymmetric state the detuning. The blocks take the dtype of the
    inputs: real for a real drive, complex for a complex detuning
    Delta - i gamma, which puts apply_decay's -i gamma per excited atom
    on pair[1, 1], triple[1, 1] and triple[2, 2] = 2 (Delta - i gamma) + V.
    """
    shapes = np.broadcast(rabi, detuning).shape, np.broadcast(rabi, detuning, v).shape
    pair_shape, triple_shape = ((1,) * (rank - len(shape)) + shape for shape in shapes)
    dtype = np.result_type(rabi, detuning, v, float)
    pair = np.zeros((2, 2) + pair_shape, dtype)
    pair[0, 1] = pair[1, 0] = 0.5 * rabi
    pair[1, 1] = detuning
    link = rabi / math.sqrt(2.0)
    triple = np.zeros((3, 3) + triple_shape, dtype)
    triple[0, 1] = triple[1, 0] = link
    triple[1, 2] = triple[2, 1] = link
    triple[1, 1] = detuning
    triple[2, 2] = (detuning + detuning) + v
    return pair, triple


def build_subspace(which: str, segment: PulseSegment, v: float) -> np.ndarray:
    """Hamiltonian restricted to one invariant sector.

    "01" and "10" give the 2x2 block on {|01>,|0r>} or {|10>,|r0>};
    "11" gives the 3x3 block on {|11>,|R>,|rr>}, in the phase of the
    full operator.
    """
    basis = subspace_basis(which)
    return basis @ build_full(segment, v) @ basis.T


def subspace_basis(which: str) -> np.ndarray:
    """Rows embedding a sector's basis vectors into the nine-state space."""
    check_subspace(which)
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


def apply_decay(h: np.ndarray, decay: DecaySpec) -> np.ndarray:
    """Add -i * gamma per excited atom (EXCITATION_COUNT) to the diagonal.

    The result generates contractive evolution: every eigenvalue has a
    non-positive imaginary part, and only diagonal imaginary parts
    change. h is one 9x9 operator or a stack of them over leading axes;
    any other shape is rejected.
    """
    matrix = np.array(h, dtype=complex)
    if matrix.shape[-2:] != (DIMENSION, DIMENSION):
        raise InvalidParameterError(f"expected 9x9 operators, got shape {matrix.shape}")
    diagonal = np.arange(DIMENSION)
    matrix[..., diagonal, diagonal] -= 1j * decay.gamma * EXCITATION_COUNT
    return matrix


def thermal_interaction(t, v: float, spec: ThermalSpec):
    """Instantaneous interaction strength under distance vibration.

    The distance is D(t) = L + b sin(omega t), in units of the waist.
    exponent_mode "literal" returns V (D/L)^6 and "physical" returns
    V (L/D)^6, the van der Waals sign of the same modulation. t may be
    a scalar or an array of times; the result has its shape. A
    non-positive distance at any time raises DegenerateGeometryError.
    """
    if spec.vibration_rate is None:
        raise InvalidParameterError(
            "thermal spec has no vibration rate; set one or derive it from the schedule"
        )
    length = spec.equilibrium_distance
    distance = length + spec.amplitude * np.sin(spec.vibration_rate * t)
    collided = np.flatnonzero(distance <= 0.0)
    if collided.size:
        first = collided[0]
        raise DegenerateGeometryError(
            f"interatomic distance {np.ravel(distance)[first]} <= 0 at t = {np.ravel(t)[first]}"
        )
    ratio = distance / length
    if spec.exponent_mode == "physical":
        ratio = 1.0 / ratio
    # float_power evaluates the C library pow for scalars and arrays alike;
    # np.power takes a vectorised loop on some CPUs that can differ from
    # it in the last bit, so array calls would not match scalar ones.
    return v * np.float_power(ratio, 6)
