"""The four benchmark workloads: seeded inputs, timed steps, output checks.

Each workload is a closed loop with one client: every step is one
in-process call that waits for the one before it, the way a script or a
shell loop drives the package. CLI steps go through ``rydgate.cli.main``
with ``--out`` into a scratch directory, so argument parsing and CSV/JSON
writes are part of the measured work. Library steps cover what the CLI
cannot express (the frozen Monte-Carlo cell, the convergence check and
the closed-form geometry).

The seed draws only the non-reference inputs, and never the amount of
work: every seed runs the same number of calls on grids of the same size.
Output checks run after a pass has been timed, never inside it.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TWO_PI = 2.0 * math.pi

# Frozen reference values and the tolerances the package's own tests use.
REFERENCES = {
    "gate_fidelity_1.65": (0.9993107882, 1e-9),
    "mc_cell_mean": (0.999332812949665, 1e-12),
    "thermal_8_20": (0.9626410772693798, 1e-9),
    "thermal_8_1": (0.9992665659424076, 1e-9),
    "decay_geo5_x5": (0.9980476256, 1e-9),
    "decay_geo5_x10": (0.9922146233, 1e-9),
    "cyclic_root": (0.3336978, 5e-6),
}

# Pass sizes. "smoke" runs the same steps on tiny grids for the tests.
SIZES = {
    "full": {
        "gate_calls": 200,
        "scan_points": 400,
        "interfere_points": 200,
        "dynamics_samples": 400,
        "return_points": 50,
        "noise_trials": 20,
        "noise_substeps": 100,
        "actuate_etas": 3,
        "actuate_phases": 48,
        "actuate_durations": 100,
        "thermal_seeded_cells": 2,
        "thermal_substeps": 1000,
        "converge_tolerance": 1e-6,
        "decay_rsteps": 5,
        "decay_to_substeps": 1500,
        "probe_gate_calls": 100,
        "min_gate_samples": 100,
        "min_converge_samples": 3,
        "min_passes": 3,
        "setup_repeats": 5,
    },
    "smoke": {
        "gate_calls": 3,
        "scan_points": 5,
        "interfere_points": 5,
        "dynamics_samples": 4,
        "return_points": 3,
        "noise_trials": 2,
        "noise_substeps": 5,
        "actuate_etas": 1,
        "actuate_phases": 4,
        "actuate_durations": 5,
        "thermal_seeded_cells": 1,
        "thermal_substeps": 20,
        "converge_tolerance": 1e-3,
        "decay_rsteps": 3,
        "decay_to_substeps": 10,
        "probe_gate_calls": 2,
        "min_gate_samples": 2,
        "min_converge_samples": 1,
        "min_passes": 1,
        "setup_repeats": 1,
    },
}


class Checker:
    """Counts output checks and keeps the message of each miss."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, what: str) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(what)

    def near(self, value: float, key: str, what: str) -> None:
        reference, tol = REFERENCES[key]
        self.expect(
            abs(value - reference) <= tol,
            f"{what}: {value!r} differs from {reference!r} by more than {tol:g}",
        )

    def in_unit_interval(self, value: float, what: str) -> None:
        self.expect(0.0 <= value <= 1.0, f"{what}: {value!r} outside [0, 1]")

    def guarded(self, what: str, check: Callable[[], None]) -> None:
        """Run a group of checks; an exception inside counts as one miss."""
        try:
            check()
        except Exception as exc:  # a malformed output must count, not abort the run
            self.attempted += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Step:
    """One unit call of a pass.

    ``run`` performs the call and returns what the checks need; ``check``
    inspects that value afterwards. ``latency`` names the latency metric
    the call feeds ("gate" or "converge"), if any.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[Checker, object], None]
    latency: str | None = None


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _cli(argv: list[str]) -> int:
    # Looked up on every call so that traced runs see the wrapped entry point.
    import rydgate.cli

    return rydgate.cli.main(argv)


def cli_step(label: str, argv: list[str], out: Path, check, latency=None) -> Step:
    """A CLI call writing to ``out``; its exit code is always checked."""

    def run():
        return _cli(argv + ["--out", str(out)])

    def checked(checker: Checker, code) -> None:
        checker.expect(code == 0, f"{label}: exit code {code}")
        if code == 0:
            checker.guarded(label, lambda: check(checker, out))

    return Step(label, run, checked, latency)


def _fmt(value: float) -> str:
    return repr(float(value))


# --- shared step builders -------------------------------------------------


def gate_step(index: int, kappa: float, out_dir: Path, reference: bool = False) -> Step:
    label = "gate[ref 1.65]" if reference else f"gate[{index}]"

    def check(checker: Checker, path: Path) -> None:
        payload = json.loads(path.read_text())
        delta = payload["delta_gamma"]
        checker.expect(-TWO_PI < delta <= 0.0, f"{label}: delta_gamma {delta!r} outside (-2 pi, 0]")
        checker.in_unit_interval(payload["fidelity"], f"{label} fidelity")
        if reference:
            checker.near(payload["fidelity"], "gate_fidelity_1.65", label)

    return cli_step(
        label,
        ["gate", "--kappa", _fmt(kappa)],
        out_dir / f"gate-{index}.json",
        check,
        latency="gate",
    )


def converge_step(tolerance: float) -> Step:
    """convergence_check on the phase-driven schedule from 200 substeps."""

    def run():
        from rydgate import experiments, model, propagate

        config = propagate.IntegratorConfig(
            mode=propagate.SUBSTEPPED,
            substeps_per_segment=200,
            convergence_tolerance=tolerance,
        )
        return propagate.convergence_check(
            model.time_optimal_schedule(), experiments.superposition_state(), config
        )

    def check(checker: Checker, report) -> None:
        checker.expect(
            report.distance < tolerance,
            f"converge: distance {report.distance!r} not below {tolerance:g}",
        )
        checker.expect(
            report.converged_substeps > report.initial_substeps,
            f"converge: no refinement ({report.converged_substeps} substeps)",
        )

    return Step("converge", run, check, latency="converge")


# --- workloads ------------------------------------------------------------


def gate_calls(rng: random.Random, size: dict, out: Path) -> list[Step]:
    """Exact-segment paths only: per-call fixed cost dominates."""
    steps = [gate_step(0, 1.65, out, reference=True)]
    steps += [
        gate_step(i, rng.uniform(1.0, 2.5), out) for i in range(1, size["gate_calls"] + 1)
    ]

    scan_points = size["scan_points"]

    def check_scan(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        checker.expect(len(rows) == scan_points, f"scan-kappa: {len(rows)} rows")
        for row in rows:
            delta = float(row["delta_gamma"])
            checker.expect(-TWO_PI < delta <= 0.0, f"scan-kappa: delta_gamma {delta!r}")
            checker.in_unit_interval(float(row["fidelity"]), "scan-kappa fidelity")

    steps.append(
        cli_step(
            "scan-kappa",
            ["scan-kappa", "--min", _fmt(rng.uniform(0.2, 0.5)),
             "--max", _fmt(rng.uniform(4.5, 5.0)), "--steps", str(scan_points)],
            out / "scan.csv",
            check_scan,
        )
    )

    interfere_points = size["interfere_points"]

    def check_interfere(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        checker.expect(len(rows) == interfere_points, f"interfere: {len(rows)} rows")
        for row in rows:
            checker.in_unit_interval(float(row["p10"]), "interfere p10")
            checker.in_unit_interval(float(row["p11"]), "interfere p11")

    steps.append(
        cli_step(
            "interfere",
            ["interfere", "--min", _fmt(rng.uniform(1.0, 1.5)),
             "--max", _fmt(rng.uniform(4.5, 5.0)), "--steps", str(interfere_points)],
            out / "interfere.csv",
            check_interfere,
        )
    )

    samples = size["dynamics_samples"]

    def check_dynamics(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        expected = 4 * (1 + 4 * samples)
        checker.expect(len(rows) == expected, f"dynamics: {len(rows)} rows, expected {expected}")
        worst = max(abs(float(row["norm"]) - 1.0) for row in rows)
        checker.expect(worst <= 1e-9, f"dynamics: norm drift {worst:g}")

    steps.append(
        cli_step(
            "dynamics",
            ["dynamics", "--kappa", _fmt(rng.uniform(1.0, 2.5)), "--samples", str(samples)],
            out / "dynamics.csv",
            check_dynamics,
        )
    )

    bracket = (rng.uniform(0.05, 0.3), rng.uniform(0.4, 1.0))
    kappas = [rng.uniform(0.2, 3.0) for _ in range(size["return_points"])]

    def run_geometry():
        from rydgate import geometry

        root = geometry.composite_cyclic_root(bracket=bracket)
        at_root = geometry.composite_return_probability(root)
        return root, at_root, [geometry.composite_return_probability(k) for k in kappas]

    def check_geometry(checker: Checker, value) -> None:
        root, at_root, probabilities = value
        checker.near(root, "cyclic_root", "geometry root")
        checker.expect(abs(at_root - 1.0) <= 1e-9, f"geometry: return at root {at_root!r}")
        for p in probabilities:
            checker.in_unit_interval(p, "geometry return probability")

    steps.append(Step("geometry", run_geometry, check_geometry))
    return steps


def sweep_batch(rng: random.Random, size: dict, out: Path) -> list[Step]:
    """Grids of many small independent exponentials and products."""
    trials = size["noise_trials"]
    eta_max = rng.uniform(0.02, 0.05)
    noise_seed = rng.randrange(2**31)

    def check_noise(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        checker.expect(len(rows) == 4, f"noise-map: {len(rows)} rows")
        for row in rows:
            checker.in_unit_interval(float(row["mean_fidelity"]), "noise-map mean")
            checker.expect(int(row["trials"]) == trials, f"noise-map: trials {row['trials']}")
        quiet = [r for r in rows if float(r["eta_omega"]) == 0.0 and float(r["eta_delta"]) == 0.0]
        checker.expect(len(quiet) == 1, "noise-map: no noise-free cell")
        # The noise-free cell takes the exact path, so it equals the plain gate.
        checker.near(float(quiet[0]["mean_fidelity"]), "gate_fidelity_1.65", "noise-map quiet cell")

    steps = [
        cli_step(
            "noise-map",
            ["noise-map", "--steps", "2", "--trials", str(trials),
             "--substeps", str(size["noise_substeps"]),
             "--eta-max", _fmt(eta_max), "--seed", str(noise_seed)],
            out / "noise.csv",
            check_noise,
        )
    ]

    def run_mc_cell():
        from rydgate import experiments, model, stochastic

        spec = model.NoiseSpec(eta_omega=0.03, eta_delta=0.02, substeps=50, seed=42)
        return stochastic.monte_carlo_gate_fidelity(1.65, experiments.V0, spec, 10)

    def check_mc_cell(checker: Checker, result) -> None:
        checker.near(result.mean_fidelity, "mc_cell_mean", "frozen Monte-Carlo cell")

    steps.append(Step("mc-cell", run_mc_cell, check_mc_cell))

    etas = sorted(round(rng.uniform(0.5, 4.0), 6) for _ in range(size["actuate_etas"]))
    phases, durations = size["actuate_phases"], size["actuate_durations"]

    def check_actuate(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        checker.expect(len(rows) == len(etas), f"actuate: {len(rows)} rows")
        for row in rows:
            cells = int(row["qualifying_cells"])
            checker.expect(0 <= cells <= phases * durations, f"actuate: {cells} qualifying cells")

    steps.append(
        cli_step(
            "actuate",
            ["actuate", "--etas", ",".join(_fmt(e) for e in etas),
             "--phase-count", str(phases), "--duration-count", str(durations)],
            out / "actuate.csv",
            check_actuate,
        )
    )
    return steps


def _thermal_step(label: str, distance: float, temperature: float, substeps: int,
                  out: Path, reference: str | None) -> Step:
    def check(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        checker.expect(len(rows) == 1, f"{label}: {len(rows)} rows")
        fidelity = float(rows[0]["fidelity"])
        checker.in_unit_interval(fidelity, f"{label} fidelity")
        if reference:
            checker.near(fidelity, reference, label)

    return cli_step(
        label,
        ["thermal-map", "--dmin", _fmt(distance), "--dmax", _fmt(distance), "--dsteps", "1",
         "--tmin", _fmt(temperature), "--tmax", _fmt(temperature), "--tsteps", "1",
         "--substeps", str(substeps)],
        out / f"{label}.csv",
        check,
    )


def smooth_drive(rng: random.Random, size: dict, out: Path) -> list[Step]:
    """Smoothly modulated Hamiltonians: integrator order sets the cost."""
    steps = [
        _thermal_step("thermal-8-20", 8.0, 20.0, 1000, out, "thermal_8_20"),
        _thermal_step("thermal-8-1", 8.0, 1.0, 1000, out, "thermal_8_1"),
    ]
    for i in range(size["thermal_seeded_cells"]):
        steps.append(
            _thermal_step(f"thermal-seeded-{i}", rng.uniform(5.0, 8.0), rng.uniform(1.0, 20.0),
                          size["thermal_substeps"], out, None)
        )
    steps.append(converge_step(size["converge_tolerance"]))
    return steps


def open_system(rng: random.Random, size: dict, out: Path) -> list[Step]:
    """Density matrices under non-Hermitian generators and scipy expm."""
    rsteps = size["decay_rsteps"]
    # The 5 MHz curve and the multiplier grid are reference inputs; the
    # other two drive frequencies are drawn near the defaults 10 and 20 MHz.
    rabi = [5.0, round(rng.uniform(8.0, 12.0), 4), round(rng.uniform(16.0, 24.0), 4)]
    grid = [10.0 * i / (rsteps - 1) for i in range(rsteps)]

    def check(checker: Checker, path: Path) -> None:
        rows = read_rows(path)
        expected = 4 * rsteps
        checker.expect(len(rows) == expected, f"decay: {len(rows)} rows, expected {expected}")
        for row in rows:
            fidelity = float(row["fidelity"])
            checker.in_unit_interval(fidelity, f"decay {row['curve']} fidelity")
            if float(row["gamma_multiplier"]) == 0.0:
                checker.expect(abs(fidelity - 1.0) <= 1e-9, f"decay {row['curve']}: {fidelity!r} at zero decay")
        geo5 = {float(r["gamma_multiplier"]): float(r["fidelity"]) for r in rows if r["curve"] == "geo-5mhz"}
        checker.near(geo5[5.0], "decay_geo5_x5", "decay geo-5mhz x5")
        checker.near(geo5[10.0], "decay_geo5_x10", "decay geo-5mhz x10")

    step = cli_step(
        "decay",
        ["decay", "--rabi", ",".join(_fmt(r) for r in rabi), "--rmax", _fmt(grid[-1]),
         "--rsteps", str(rsteps), "--to-substeps", str(size["decay_to_substeps"])],
        out / "decay.csv",
        check,
    )
    return [step]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, dict, Path], list[Step]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gate-calls",
            "many small exact-segment CLI calls: per-call fixed cost, argparse and I/O dominate",
            gate_calls,
        ),
        Workload(
            "sweep-batch",
            "Monte-Carlo noise map and actuating scan: grids of many small independent exponentials",
            sweep_batch,
        ),
        Workload(
            "smooth-drive",
            "thermal cells and a convergence check: smoothly modulated drives where integrator order sets the cost",
            smooth_drive,
        ),
        Workload(
            "open-system",
            "decay curves: density matrices, non-Hermitian generators and scipy expm",
            open_system,
        ),
    )
}


def probe_round(workload: str, rng: random.Random, size: dict, out: Path) -> list[Step]:
    """Calls that let every workload report every latency metric.

    gate-calls makes 201 gate calls per pass and smooth-drive one
    convergence check per pass. The other workloads run this round of
    gate calls and one convergence check after each pass, outside
    ``wall_s``, so the latencies sample the same stretch of time as the
    passes.
    """
    steps = []
    if workload != "gate-calls":
        steps += [gate_step(i, rng.uniform(1.0, 2.5), out) for i in range(size["probe_gate_calls"])]
    if workload != "smooth-drive":
        steps.append(converge_step(size["converge_tolerance"]))
    return steps
