"""Analytic operators behind the two geometric control mechanisms.

The {|11>,|rr>} sector realizes a holonomic transformation whose angle
chi = pi / sqrt(16 kappa^2 + 1) depends only on kappa; the {|10>,|r0>}
sector undergoes a cyclic two-level rotation characterized by a mixing
angle and a rotation half-angle. Both closed forms are checked against
blocks of the full nine-state propagator (`sector_evolution`), and the
composite-pulse cyclicity condition for the two-level sector is solved
by bisection.

Frame calibration (fixed once against the numeric propagator and locked
by tests): with drive phase phi and sector duration equal to the
holonomy period,

* the numeric {|11>,|rr>} block equals u11_analytic(phi + pi/2, pi - chi),
  exactly when phi is a multiple of pi/2 and elementwise in magnitude
  otherwise (the closed form is unitary only at those phases);
* the numeric {|10>,|r0>} propagator equals
  exp(-i Delta T / 2) * u10_analytic(params) with the params phase set
  to phi - pi/2, for every phi and duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, RootNotFoundError
from .hamiltonian import subspace_basis
from .model import ALTERNATE_PHASE, V0, PulseSegment, Schedule, cyclic_segment_duration
from .propagate import evolution_operator

__all__ = [
    "TwoLevelParams",
    "chi",
    "u11_analytic",
    "u10_analytic",
    "periods",
    "dressed_states",
    "sector_evolution",
    "u11_lab_frame",
    "u10_lab_frame",
    "composite_objective",
    "composite_cyclic_root",
    "composite_return_probability",
]


def chi(kappa: float) -> float:
    """Holonomy angle pi / sqrt(16 kappa^2 + 1)."""
    if not kappa >= 0.0:
        raise InvalidParameterError(f"kappa must be >= 0, got {kappa}")
    return math.pi / math.sqrt(16.0 * kappa**2 + 1.0)


@dataclass(frozen=True)
class TwoLevelParams:
    """Rotation data for the cyclic two-level sector.

    mixing_angle is the branch of arctan(rabi / detuning) with positive
    cosine, rotation_half_angle is sqrt(rabi^2 + detuning^2) * T / 2,
    and the rotation axis is (sin(theta) sin(phase), sin(theta)
    cos(phase), cos(theta)).
    """

    mixing_angle: float
    rotation_half_angle: float
    phase: float = 0.0

    @classmethod
    def from_drive(
        cls, rabi: float, detuning: float, duration: float, phase: float = 0.0
    ) -> "TwoLevelParams":
        if detuning == 0.0:
            mixing = math.pi / 2.0
        else:
            mixing = math.atan(rabi / detuning)
        half_angle = 0.5 * math.hypot(rabi, detuning) * duration
        return cls(mixing_angle=mixing, rotation_half_angle=half_angle, phase=phase)

    @property
    def axis(self) -> np.ndarray:
        sin_mix = math.sin(self.mixing_angle)
        return np.array(
            [
                sin_mix * math.sin(self.phase),
                sin_mix * math.cos(self.phase),
                math.cos(self.mixing_angle),
            ]
        )


def u11_analytic(phi: float, chi_angle: float) -> np.ndarray:
    """Holonomic operator on {|11>,|rr>} for one cyclic period."""
    loop = np.exp(-1j * chi_angle)
    diagonal = 0.5 * (1.0 + loop)
    off = 0.5 * np.exp(-2j * phi) * (1.0 - loop)
    return np.array([[diagonal, off], [off, diagonal]], dtype=complex)


def u10_analytic(params: TwoLevelParams) -> np.ndarray:
    """Axis-angle rotation cos(beta) I - i sin(beta) (n . sigma) on {|10>,|r0>}."""
    beta = params.rotation_half_angle
    nx, ny, nz = params.axis
    cos_b = math.cos(beta)
    sin_b = math.sin(beta)
    return np.array(
        [
            [cos_b - 1j * sin_b * nz, -1j * sin_b * (nx - 1j * ny)],
            [-1j * sin_b * (nx + 1j * ny), cos_b + 1j * sin_b * nz],
        ],
        dtype=complex,
    )


def periods(kappa: float, v: float) -> tuple[float, float]:
    """Cyclic periods (T11, T10) of the two driven sectors at Delta = -V/2.

    T11 is the segment duration of the standard schedule.
    """
    t11 = cyclic_segment_duration(kappa, v)
    t10 = 2.0 * math.pi / math.hypot(kappa * v, -v / 2.0)
    return t11, t10


def dressed_states(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bright/dark pair on {|11>,|rr>} for drive phase phi.

    Both diagonalize the one-period sector propagator: the dark state
    returns exactly unchanged while the bright state traverses the loop
    and returns with phase pi minus the sector half-phase.
    """
    factor = np.exp(2j * phi) / math.sqrt(2.0)
    bright = np.array([factor, 1.0 / math.sqrt(2.0)], dtype=complex)
    dark = np.array([factor, -1.0 / math.sqrt(2.0)], dtype=complex)
    return bright, dark


def sector_evolution(
    which: str, kappa: float, v: float, phi: float, duration: float | None = None
) -> np.ndarray:
    """Numeric sector propagator, the oracle for the closed forms.

    The block of the full nine-state propagator of one drive segment on
    the sector's basis. Defaults to one holonomy period. For the
    three-level "11" sector the result is restricted to the {|11>,|rr>}
    corners; after a full period the middle level disentangles, so the
    restriction is unitary.
    """
    basis = subspace_basis(which)
    if duration is None:
        duration = periods(kappa, v)[0]
    segment = PulseSegment(rabi=kappa * v, detuning=-v / 2.0, phase=phi, duration=duration)
    full = evolution_operator(Schedule(segments=(segment,), interaction=v))
    propagator = basis @ full @ basis.conj().T
    if which == "11":
        return propagator[np.ix_([0, 2], [0, 2])]
    return propagator


def u11_lab_frame(kappa: float, phi: float) -> np.ndarray:
    """Closed-form {|11>,|rr>} propagator in the simulation frame.

    Applies the calibrated offsets (phi + pi/2, chi -> pi - chi); see
    the module docstring for the exactness domain.
    """
    return u11_analytic(phi + math.pi / 2.0, math.pi - chi(kappa))


def u10_lab_frame(
    kappa: float, v: float, phi: float, duration: float | None = None
) -> np.ndarray:
    """Closed-form {|10>,|r0>} propagator in the simulation frame.

    Multiplies the axis-angle form by the global phase
    exp(-i Delta T / 2) and shifts the axis phase by -pi/2; exact for
    every drive phase and duration.
    """
    if duration is None:
        duration = periods(kappa, v)[0]
    detuning = -v / 2.0
    params = TwoLevelParams.from_drive(
        kappa * v, detuning, duration, phase=phi - math.pi / 2.0
    )
    return np.exp(-1j * detuning * duration / 2.0) * u10_analytic(params)


def composite_objective(kappa: float, v: float = V0) -> float:
    """tan(beta) cos(theta) + 1 over one holonomy period.

    A root makes the four-pulse two-level composite cyclic. The value is
    independent of v.
    """
    omega = kappa * v
    detuning = -v / 2.0
    t11, _ = periods(kappa, v)
    params = TwoLevelParams.from_drive(omega, detuning, t11)
    return math.tan(params.rotation_half_angle) * math.cos(params.mixing_angle) + 1.0


def composite_cyclic_root(bracket: tuple[float, float] = (0.05, 1.0)) -> float:
    """Bisection root of the composite cyclicity condition in kappa.

    Bisects until the bracket is at most 1e-6 wide and returns its midpoint.
    """
    low, high = float(bracket[0]), float(bracket[1])
    if not (0.0 < low < high):
        raise InvalidParameterError(f"invalid bracket {bracket}")
    f_low = composite_objective(low)
    f_high = composite_objective(high)
    if f_low == 0.0:
        return low
    if f_high == 0.0:
        return high
    if f_low * f_high > 0.0:
        raise RootNotFoundError(
            f"no sign change on [{low}, {high}]: f = ({f_low:.6g}, {f_high:.6g})"
        )
    while high - low > 1e-6:
        mid = 0.5 * (low + high)
        f_mid = composite_objective(mid)
        if f_mid == 0.0:
            return mid
        if f_low * f_mid < 0.0:
            high = mid
        else:
            low, f_low = mid, f_mid
    return 0.5 * (low + high)


def composite_return_probability(kappa: float, v: float = V0) -> float:
    """|10> return probability after the four-pulse two-level composite.

    The composite is the standard four segments, with drive phases
    alternating between 0 and ALTERNATE_PHASE.
    """
    u_a = sector_evolution("10", kappa, v, 0.0)
    u_b = sector_evolution("10", kappa, v, ALTERNATE_PHASE)
    pair = u_b @ u_a
    composite = pair @ pair
    return float(abs(composite[0, 0]) ** 2)
