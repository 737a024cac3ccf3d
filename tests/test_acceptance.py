"""Acceptance criteria for the geometric controlled-phase gate package.

Each test covers one numbered criterion and prints a single PASS/FAIL
line before asserting, so a verbose run reads as a checklist. Criteria
5 and 7 state targets the implemented model does not reach; the tests
assert the stated targets anyway and are expected to fail, with the
measured values printed for the record.
"""

import dataclasses
import math

import numpy as np
import pytest

import rydgate as rg
from rydgate.experiments import (
    interior_extrema,
    run_actuating_scan,
    run_decay_curves,
    run_interferometer,
)
from rydgate.geometry import (
    chi,
    composite_cyclic_root,
    composite_return_probability,
    sector_evolution,
    u10_lab_frame,
    u11_analytic,
    u11_lab_frame,
)
from rydgate.metrics import gate_outcome
from rydgate.model import (
    NoiseSpec,
    PulseSegment,
    Schedule,
    ThermalSpec,
    basis_state,
    cyclic_segment_duration,
    standard_schedule,
)
from rydgate.propagate import evolution_operator, propagate_state
from rydgate.stochastic import (
    monte_carlo_gate_fidelity,
    sample_noise_trace,
    thermal_gate_fidelity,
)

V = 2.0 * math.pi
TWO_PI = 2.0 * math.pi


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} - {detail}")


def test_criterion_01_nominal_gate_returns_and_phase():
    outcome = gate_outcome(evolution_operator(standard_schedule(1.65, V)))
    returns_ok = all(
        p >= 0.99 for p in outcome.return_probabilities.values()
    )
    phase_gap = abs(outcome.delta_gamma + math.pi)
    ok = returns_ok and phase_gap <= 0.05
    report(
        1,
        ok,
        f"returns {sorted(outcome.return_probabilities.values())}, "
        f"|delta_gamma + pi| = {phase_gap:.4f}",
    )
    assert returns_ok
    assert phase_gap <= 0.05


def test_criterion_02_strong_drive_approaches_trivial_phase():
    outcome = gate_outcome(evolution_operator(standard_schedule(50.0, V)))
    gap = abs((outcome.delta_gamma + TWO_PI + math.pi) % TWO_PI - math.pi)
    ok = gap <= 0.1
    report(2, ok, f"delta_gamma = {outcome.delta_gamma:.6f}, circle gap to -2 pi = {gap:.6f}")
    assert gap <= 0.1


def test_criterion_03_pulse_area_near_closed_form():
    area = V * 4.0 * cyclic_segment_duration(1.65, V)
    target = 2.4 * math.pi
    rel = abs(area - target) / target
    closed_form = 8.0 * math.pi / math.sqrt(4.0 * 1.65**2 + 0.25)
    ok = rel <= 0.05 and abs(area - closed_form) < 1e-12
    report(
        3,
        ok,
        f"area = {area:.6f} vs 2.4 pi = {target:.6f} (relative gap {rel:.4%})",
    )
    assert rel <= 0.05
    assert area == pytest.approx(closed_form, abs=1e-12)


def test_criterion_04_noise_robustness():
    spec = NoiseSpec(eta_omega=0.05, eta_delta=0.05, substeps=100, seed=12345)
    result = monte_carlo_gate_fidelity(1.65, V, spec, 100)
    ok = result.mean_fidelity >= 0.995
    report(
        4,
        ok,
        f"mean fidelity {result.mean_fidelity:.6f} +/- {result.std_fidelity:.6f} "
        f"over {result.trials} trials",
    )
    assert result.mean_fidelity >= 0.995


def test_criterion_05_thermal_motion():
    far = thermal_gate_fidelity(1.65, V, ThermalSpec(equilibrium_distance=8.0, temperature=20.0))
    near = thermal_gate_fidelity(1.65, V, ThermalSpec(equilibrium_distance=4.0, temperature=20.0))
    ordering_ok = near < far
    level_ok = far > 0.99
    ok = ordering_ok and level_ok
    report(
        5,
        ok,
        f"F(8 um, 20 uK) = {far:.5f} (target > 0.99), F(4 um, 20 uK) = {near:.5f}",
    )
    assert ordering_ok
    assert level_ok


def test_criterion_06_sector_oracles():
    worst_match = 0.0
    worst_identity = 0.0
    for kappa in (0.335, 0.5, 1.0, 1.65, 3.0):
        for phi in (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi):
            gap = np.max(
                np.abs(sector_evolution("11", kappa, V, phi) - u11_lab_frame(kappa, phi))
            )
            worst_match = max(worst_match, float(gap))
        for phi in (0.0, 0.7, math.pi / 2.0):
            gap = np.max(
                np.abs(
                    sector_evolution("10", kappa, V, phi)
                    - u10_lab_frame(kappa, V, phi)
                )
            )
            worst_match = max(worst_match, float(gap))
        c = chi(kappa)
        pair = u11_analytic(math.pi / 2.0, c) @ u11_analytic(0.0, c)
        defect = np.max(np.abs(pair - np.exp(-1j * c) * np.eye(2)))
        worst_identity = max(worst_identity, float(defect))
    ok = worst_match < 1e-8 and worst_identity < 1e-10
    report(
        6,
        ok,
        f"worst oracle gap {worst_match:.2e}, worst composite identity defect "
        f"{worst_identity:.2e}",
    )
    assert worst_match < 1e-8
    assert worst_identity < 1e-10


def test_criterion_07_composite_cyclic_root():
    root = composite_cyclic_root()
    location_ok = abs(root - 0.335) <= 0.001
    returned = composite_return_probability(root)
    return_ok = abs(returned - 1.0) <= 1e-6
    ok = location_ok and return_ok
    report(
        7,
        ok,
        f"root = {root:.6f} (target 0.335 +/- 0.001), return probability "
        f"{returned:.9f}",
    )
    assert return_ok
    assert location_ok


def test_criterion_08_decay_comparison():
    result = run_decay_curves()
    curves = {}
    for row in result.rows:
        curves.setdefault(row["curve"], {})[row["gamma_multiplier"]] = row["fidelity"]
    multipliers = sorted(curves["geo-5mhz"])
    ordering_ok = all(
        curves["geo-20mhz"][r] >= curves["geo-10mhz"][r] >= curves["geo-5mhz"][r]
        for r in multipliers
        if r > 0.0
    )
    zero_ok = all(
        abs(curve[0.0] - 1.0) <= 1e-3 for curve in curves.values()
    )
    tracking_gap = max(
        abs(curves["geo-5mhz"][r] - curves["time-optimal"][r]) for r in multipliers
    )
    tracking_ok = tracking_gap <= 0.01
    ok = ordering_ok and zero_ok and tracking_ok
    report(
        8,
        ok,
        f"ordering holds: {ordering_ok}, F(0) offsets <= 1e-3: {zero_ok}, "
        f"worst gap to comparison curve {tracking_gap:.4f}",
    )
    assert ordering_ok
    assert zero_ok
    assert tracking_ok


def test_criterion_09_interferometer_contrast():
    result = run_interferometer(kappa_grid=tuple(np.linspace(1.0, 5.0, 41)))
    p10 = [row["p10"] for row in result.rows]
    p11 = [row["p11"] for row in result.rows]
    sums = [a + b for a, b in zip(p10, p11)]
    leakage_ok = min(sums) < 1.0 - 1e-3
    extrema_10 = interior_extrema(p10)
    extrema_11 = interior_extrema(p11)
    extrema_ok = extrema_10 >= 1 and extrema_11 >= 1
    ok = leakage_ok and extrema_ok
    report(
        9,
        ok,
        f"min(P10 + P11) = {min(sums):.4f}, interior extrema "
        f"{extrema_10} and {extrema_11}",
    )
    assert leakage_ok
    assert extrema_ok


def test_criterion_10_actuating_quadratic_growth():
    result = run_actuating_scan()
    coefficients = result.metadata["fit_coefficients"]
    residual = result.metadata["relative_residual"]
    lead_ok = coefficients is not None and coefficients[0] > 0.0
    residual_ok = residual is not None and residual < 0.10
    ok = lead_ok and residual_ok
    report(
        10,
        ok,
        f"lead coefficient {coefficients[0]:.4f}, relative residual {residual:.2%}",
    )
    assert lead_ok
    assert residual_ok


def test_criterion_11_property_suite():
    rng = np.random.default_rng(2026)
    norm_ok = True
    for _ in range(5):
        segments = tuple(
            PulseSegment(
                rabi=float(rng.uniform(0.1, 8.0)),
                detuning=float(rng.uniform(-4.0, 4.0)),
                phase=float(rng.uniform(-math.pi, math.pi)),
                duration=float(rng.uniform(0.05, 1.0)),
            )
            for _ in range(rng.integers(1, 5))
        )
        schedule = Schedule(segments=segments, interaction=float(rng.uniform(0.0, 10.0)))
        raw = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi = raw / np.linalg.norm(raw)
        result = propagate_state(schedule, psi)
        norm_ok = norm_ok and bool(np.all(np.abs(result.norms - 1.0) < 1e-9))

    gauge_ok = True
    base = gate_outcome(evolution_operator(standard_schedule(1.65, V)))
    u = evolution_operator(standard_schedule(1.65, V))
    for _ in range(5):
        angles = rng.uniform(-math.pi, math.pi, size=4)
        first = np.diag(np.exp(1j * np.array([angles[0], angles[1], 0.0])))
        second = np.diag(np.exp(1j * np.array([angles[2], angles[3], 0.0])))
        gauge = np.kron(first, second)
        rotated = gate_outcome(gauge @ u @ gauge.conj().T)
        gauge_ok = gauge_ok and abs(rotated.delta_gamma - base.delta_gamma) < 1e-9

    bounds_ok = True
    for seed in range(3):
        spec = NoiseSpec(eta_omega=0.05, eta_delta=0.03, substeps=25, seed=seed)
        mult_omega, mult_delta = sample_noise_trace(spec, 4)
        bounds_ok = bounds_ok and bool(
            np.all(np.abs(mult_omega - 1.0) <= 0.05)
            and np.all(np.abs(mult_delta - 1.0) <= 0.03)
        )

    round_trip_ok = True
    for _ in range(3):
        segments = tuple(
            PulseSegment(
                rabi=float(rng.uniform(0.1, 8.0)),
                detuning=float(rng.uniform(-4.0, 4.0)),
                phase=float(rng.uniform(-math.pi, math.pi)),
                duration=float(rng.uniform(0.05, 1.0)),
            )
            for _ in range(rng.integers(1, 5))
        )
        schedule = Schedule(segments=segments, interaction=float(rng.uniform(0.1, 9.0)))
        round_trip_ok = round_trip_ok and Schedule.from_json(schedule.to_json()) == schedule

    rescale_ok = True
    u_ref = evolution_operator(standard_schedule(1.3, V))
    for factor in (0.5, 2.0, 7.5):
        scaled = evolution_operator(standard_schedule(1.3, V).rescaled(factor))
        rescale_ok = rescale_ok and float(np.max(np.abs(scaled - u_ref))) < 1e-12

    ok = norm_ok and gauge_ok and bounds_ok and round_trip_ok and rescale_ok
    report(
        11,
        ok,
        f"norms {norm_ok}, gauge invariance {gauge_ok}, noise bounds {bounds_ok}, "
        f"serialization {round_trip_ok}, rescaling {rescale_ok}",
    )
    assert norm_ok
    assert gauge_ok
    assert bounds_ok
    assert round_trip_ok
    assert rescale_ok


@pytest.fixture(autouse=True)
def _basis_sanity():
    # Guard assumption shared by every criterion: computational states
    # sit at indices 0, 1, 3, 4 of the nine-state basis.
    assert [rg.BASIS_LABELS[i] for i in (0, 1, 3, 4)] == ["00", "01", "10", "11"]
    assert np.argmax(basis_state("11")) == 4
    yield
