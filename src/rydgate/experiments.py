"""Reproducible experiment pipelines built on the core modules.

Each runner returns a ScanResult: a list of flat row dicts plus the
axes that generated them and metadata sufficient to rerun the scan.
ScanResult.to_csv writes the rows and drops the metadata next to the
CSV as a sibling .meta.json file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import InvalidParameterError
from .geometry import chi
from .metrics import (
    OVERLAP_TOL,
    compensated_fidelity,
    conditional_state_fidelity,
    diagonal_summary,
    gate_outcome,
)
from .model import (
    BASE_DECAY_RATE,
    BASIS_LABELS,
    COMPUTATIONAL_INDICES,
    COMPUTATIONAL_LABELS,
    V0,
    DecaySpec,
    NoiseSpec,
    ThermalSpec,
    basis_state,
    cyclic_segment_duration,
    standard_phases,
    standard_schedule,
    time_optimal_schedule,
)
from .propagate import (
    SUBSTEPPED,
    IntegratorConfig,
    batch_rows,
    check_finite,
    computational_diagonal,
    evolution_operator,
    propagate_basis,
    propagate_density,
    sector_product,
    sector_unitary,
    unitary_step,
)
from .stochastic import monte_carlo_gate_fidelity, thermal_gate_fidelity

REFERENCE_KAPPA = 1.65


# Rows that ScanResult.write_rows formats at once, which bounds the
# memory its formatted cells take.
_CSV_ROWS = 256


def _integer_text(value) -> str:
    return str(int(value))


def _float_text(value) -> str:
    return format(float(value), ".12g")


def _cell_formatter(kind):
    """CSV text of a cell of type kind: text as is, integers in full,
    anything else as a float to 12 significant digits."""
    if issubclass(kind, str):
        return str
    if issubclass(kind, (int, np.integer)):
        return _integer_text
    return _float_text


def _format_column(values) -> list:
    """The cells of one column as CSV text, with one formatter for a
    column whose cells all take the same one."""
    formatters = {_cell_formatter(kind) for kind in set(map(type, values))}
    if len(formatters) == 1:
        return list(map(formatters.pop(), values))
    return [_cell_formatter(type(value))(value) for value in values]


@dataclass(frozen=True)
class ScanResult:
    """Rows of a scan plus the axes and metadata that produced them."""

    axes: dict
    rows: list
    metadata: dict = field(default_factory=dict)

    def columns(self) -> list:
        stored = self.metadata.get("columns")
        if stored:
            return list(stored)
        return list(self.rows[0]) if self.rows else []

    def write_rows(self, stream) -> None:
        """Write the header and rows as CSV text to an open stream,
        formatting _CSV_ROWS rows at a time column by column."""
        writer = csv.writer(stream)
        names = self.columns()
        writer.writerow(names)
        for first in range(0, len(self.rows), _CSV_ROWS):
            rows = self.rows[first : first + _CSV_ROWS]
            writer.writerows(zip(*(_format_column([row[n] for row in rows]) for n in names)))

    def to_csv(self, path) -> Path:
        """Write rows as CSV and the metadata as a sibling .meta.json."""
        path = Path(path)
        with open(path, "w", newline="") as handle:
            self.write_rows(handle)
        meta_path = path.with_suffix(".meta.json")
        with open(meta_path, "w") as handle:
            json.dump(self.metadata, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return meta_path


def _metadata(**extra) -> dict:
    base = {"tool": "rydgate", "version": __version__}
    base.update(extra)
    return base


def superposition_state() -> np.ndarray:
    """Equal superposition of the four computational basis states."""
    psi = np.zeros(9, dtype=complex)
    psi[list(COMPUTATIONAL_INDICES)] = 0.5
    return psi


def interior_extrema(values) -> int:
    """Count interior local extrema of a sampled curve.

    Uses sign changes of consecutive differences; flat runs collapse to
    their surrounding trend.
    """
    diffs = np.diff(np.asarray(values, dtype=float))
    signs = np.sign(diffs)
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


def run_dynamics(
    kappa: float, v: float = V0, samples_per_segment: int = 100
) -> ScanResult:
    """Populations over time for each computational initial state."""
    schedule = standard_schedule(kappa, v)
    config = IntegratorConfig(samples_per_segment=samples_per_segment)
    columns = ["initial", "t"] + [f"P{label}" for label in BASIS_LABELS] + ["norm"]
    result = propagate_basis(schedule, COMPUTATIONAL_INDICES, config)
    times = result.times
    # Rows by initial state, then time: the columns t, P*, norm as one table.
    table = np.column_stack(
        (
            np.tile(times, len(COMPUTATIONAL_LABELS)),
            result.populations.swapaxes(0, 1).reshape(-1, len(BASIS_LABELS)),
            result.norms.T.reshape(-1),
        )
    )
    labels = [label for label in COMPUTATIONAL_LABELS for _ in times]
    rows = [dict(zip(columns, (label, *values))) for label, values in zip(labels, table.tolist())]
    axes = {
        "initial": list(COMPUTATIONAL_LABELS),
        "t": [float(t) for t in times],
    }
    metadata = _metadata(
        columns=columns,
        schedule=schedule.to_json_dict(),
        grids={"samples_per_segment": int(samples_per_segment)},
    )
    return ScanResult(axes=axes, rows=rows, metadata=metadata)


def scan_kappa(kappa_grid, v: float = V0) -> ScanResult:
    """Gate summary for each drive-to-interaction ratio on the grid.

    Each point is the four-segment standard_schedule(kappa, v). The
    grid is evaluated in batches of as many whole points as one
    sector_product batch holds (propagate.batch_rows), each scored by
    diagonal_summary from its computational diagonal without a 9x9
    operator, so only the rows grow with the grid. Raises
    UndefinedPhaseError when any point leaves a computational state
    behind.
    """
    grid = [float(k) for k in np.atleast_1d(np.asarray(kappa_grid, dtype=float))]
    if not grid:
        raise InvalidParameterError("kappa grid must not be empty")
    # Validates every point as standard_schedule would.
    durations = np.array([cyclic_segment_duration(kappa, v) for kappa in grid])
    rabi = np.array(grid) * v
    phases = standard_phases()
    returns = [f"return_{label}" for label in COMPUTATIONAL_LABELS]
    columns = ["kappa", "delta_gamma"] + returns + ["fidelity", "leakage"]
    fields = ("delta_gamma", "return_probabilities", "fidelity", "leakage")
    rows = []
    count = batch_rows(len(phases))
    for first in range(0, len(grid), count):
        points = np.s_[first : first + count, None]
        product = sector_product(rabi[points], -v / 2.0, phases, v, durations[points])
        summary = diagonal_summary(computational_diagonal(product))
        table = np.column_stack([grid[first : first + count]] + [summary[name] for name in fields])
        rows.extend(dict(zip(columns, values)) for values in table.tolist())
    metadata = _metadata(columns=columns, grids={"kappa": grid, "v": float(v)})
    return ScanResult(axes={"kappa": grid}, rows=rows, metadata=metadata)


def run_noise_map(
    eta_omega_grid=None,
    eta_delta_grid=None,
    trials: int = 100,
    seed: int = 12345,
    substeps: int = 100,
    kappa: float = REFERENCE_KAPPA,
    v: float = V0,
) -> ScanResult:
    """Mean Monte-Carlo fidelity on a grid of noise amplitudes.

    Each cell derives an independent seed from the top-level seed and
    its grid position, so single cells can be recomputed in isolation.
    """
    if eta_omega_grid is None:
        eta_omega_grid = np.linspace(0.0, 0.05, 6)
    if eta_delta_grid is None:
        eta_delta_grid = np.linspace(0.0, 0.05, 6)
    omega_axis = [float(e) for e in np.atleast_1d(eta_omega_grid)]
    delta_axis = [float(e) for e in np.atleast_1d(eta_delta_grid)]
    if not omega_axis or not delta_axis:
        raise InvalidParameterError("noise amplitude grids must not be empty")
    if int(seed) < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    columns = ["eta_omega", "eta_delta", "mean_fidelity", "std_fidelity", "trials"]
    rows = []
    for i, eta_omega in enumerate(omega_axis):
        for j, eta_delta in enumerate(delta_axis):
            cell_seed = int(
                np.random.SeedSequence([int(seed), i, j]).generate_state(
                    1, dtype=np.uint64
                )[0]
            )
            spec = NoiseSpec(
                eta_omega=eta_omega,
                eta_delta=eta_delta,
                substeps=int(substeps),
                seed=cell_seed,
            )
            result = monte_carlo_gate_fidelity(kappa, v, spec, trials)
            rows.append(
                {
                    "eta_omega": eta_omega,
                    "eta_delta": eta_delta,
                    "mean_fidelity": result.mean_fidelity,
                    "std_fidelity": result.std_fidelity,
                    "trials": result.trials,
                }
            )
    metadata = _metadata(
        columns=columns,
        seed=int(seed),
        grids={
            "eta_omega": omega_axis,
            "eta_delta": delta_axis,
            "kappa": float(kappa),
            "v": float(v),
            "trials": int(trials),
            "substeps": int(substeps),
        },
    )
    return ScanResult(
        axes={"eta_omega": omega_axis, "eta_delta": delta_axis},
        rows=rows,
        metadata=metadata,
    )


def run_thermal_map(
    distance_grid=None,
    temperature_grid=None,
    exponent_mode: str = "literal",
    kappa: float = REFERENCE_KAPPA,
    v: float = V0,
    substeps: int = 1000,
) -> ScanResult:
    """Gate fidelity versus trap distance and temperature."""
    if distance_grid is None:
        distance_grid = np.linspace(4.0, 8.0, 5)
    if temperature_grid is None:
        temperature_grid = np.linspace(1.0, 20.0, 5)
    distances = [float(d) for d in np.atleast_1d(distance_grid)]
    temperatures = [float(t) for t in np.atleast_1d(temperature_grid)]
    if not distances or not temperatures:
        raise InvalidParameterError("distance and temperature grids must not be empty")
    columns = ["distance", "temperature", "fidelity"]
    rows = []
    for distance in distances:
        for temperature in temperatures:
            spec = ThermalSpec(
                equilibrium_distance=distance,
                temperature=temperature,
                exponent_mode=exponent_mode,
            )
            fidelity = thermal_gate_fidelity(kappa, v, spec, substeps=substeps)
            rows.append(
                {
                    "distance": distance,
                    "temperature": temperature,
                    "fidelity": fidelity,
                }
            )
    metadata = _metadata(
        columns=columns,
        grids={
            "distance": distances,
            "temperature": temperatures,
            "kappa": float(kappa),
            "v": float(v),
            "substeps": int(substeps),
            "exponent_mode": exponent_mode,
        },
    )
    return ScanResult(
        axes={"distance": distances, "temperature": temperatures},
        rows=rows,
        metadata=metadata,
    )


def preparation_rotation() -> np.ndarray:
    """Half-turn beamsplitter on one atom's qubit manifold.

    Maps |0> to (|0> + |1>) / sqrt(2) and |1> to (|1> - |0>) / sqrt(2)
    while leaving the excited level alone. Applying it twice swaps the
    qubit states up to sign.
    """
    root_half = 1.0 / math.sqrt(2.0)
    return np.array(
        [
            [root_half, -root_half, 0.0],
            [root_half, root_half, 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def preparation_operator() -> np.ndarray:
    """Beamsplitter on the second atom, identity on the first."""
    return np.kron(np.eye(3, dtype=complex), preparation_rotation())


@dataclass(frozen=True)
class InterferometerSpec:
    """Single-segment interferometer sweep settings.

    The segment duration is frozen at the cyclic period of the
    reference ratio so that sweeping kappa detunes the interferometer
    instead of retuning it.
    """

    kappa_grid: tuple
    v: float = V0
    reference_kappa: float = REFERENCE_KAPPA

    def __post_init__(self):
        grid = tuple(float(k) for k in np.atleast_1d(np.asarray(self.kappa_grid)))
        if not grid:
            raise InvalidParameterError("kappa grid must not be empty")
        object.__setattr__(self, "kappa_grid", grid)
        for name, value in [("kappa", k) for k in grid] + [
            ("interaction", self.v),
            ("reference kappa", self.reference_kappa),
            ("drive kappa * interaction", max(grid) * self.v),
        ]:
            if not 0.0 < value < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite, got {value}")


def run_interferometer(spec: InterferometerSpec) -> ScanResult:
    """Output populations of the beamsplitter-interaction-beamsplitter loop.

    Starts in |10>, applies the beamsplitter to the second atom, one
    interaction segment of fixed duration, and the beamsplitter again,
    then reads out the |10> and |11> populations. The segments of the
    whole grid form one sector_product stack.
    """
    duration = cyclic_segment_duration(spec.reference_kappa, spec.v)
    splitter = preparation_operator()
    kappas = np.array(spec.kappa_grid)
    product = sector_product(kappas[:, None] * spec.v, -spec.v / 2.0, 0.0, spec.v, duration)
    prepared = splitter @ basis_state("10")
    # Row k is splitter @ U_k @ prepared, the final state of grid point k.
    final = (sector_unitary(product) @ prepared) @ splitter.T
    check_finite(final, "interferometer state", "kappa", kappas)
    populations = np.abs(final[:, 3:5]) ** 2
    columns = ["kappa", "p10", "p11"]
    rows = [
        {"kappa": kappa, "p10": p10, "p11": p11}
        for kappa, (p10, p11) in zip(spec.kappa_grid, populations.tolist())
    ]
    metadata = _metadata(
        columns=columns,
        grids={
            "kappa": list(spec.kappa_grid),
            "v": float(spec.v),
            "reference_kappa": float(spec.reference_kappa),
            "duration": float(duration),
        },
    )
    return ScanResult(axes={"kappa": list(spec.kappa_grid)}, rows=rows, metadata=metadata)


def run_decay_curves(
    rabi_frequencies=None,
    multiplier_grid=None,
    kappa: float = REFERENCE_KAPPA,
    compare_time_optimal: bool = True,
    time_optimal_substeps: int = 1500,
) -> ScanResult:
    """Conditional state fidelity versus excited-level decay rate.

    Each curve propagates the equal superposition of the computational
    states as a density matrix and scores the surviving state against
    the decay-free final state of the same schedule. The optional
    comparison curve uses the single-segment phase-driven schedule.
    """
    if rabi_frequencies is None:
        rabi_frequencies = tuple(2.0 * math.pi * f for f in (5.0, 10.0, 20.0))
    if multiplier_grid is None:
        multiplier_grid = np.linspace(0.0, 10.0, 21)
    multipliers = [float(r) for r in np.atleast_1d(multiplier_grid)]
    initial = superposition_state()
    rho_initial = np.outer(initial, initial.conj())

    curves = []
    for rabi in rabi_frequencies:
        name = f"geo-{rabi / (2.0 * math.pi):g}mhz"
        schedule = standard_schedule(kappa, rabi / kappa, units="mhz")
        config = IntegratorConfig(samples_per_segment=1)
        curves.append((name, schedule, config))
    if compare_time_optimal:
        config = IntegratorConfig(
            mode=SUBSTEPPED,
            substeps_per_segment=int(time_optimal_substeps),
            samples_per_segment=1,
        )
        curves.append(("time-optimal", time_optimal_schedule(), config))

    columns = ["curve", "gamma_multiplier", "gamma", "fidelity"]
    rows = []
    for name, schedule, config in curves:
        reference = propagate_density(
            schedule, rho_initial, DecaySpec(gamma=0.0), config
        ).final_state
        for multiplier in multipliers:
            decayed = propagate_density(
                schedule, rho_initial, DecaySpec.from_multiplier(multiplier), config
            ).final_state
            rows.append(
                {
                    "curve": name,
                    "gamma_multiplier": multiplier,
                    "gamma": multiplier * BASE_DECAY_RATE,
                    "fidelity": conditional_state_fidelity(decayed, reference),
                }
            )
    metadata = _metadata(
        columns=columns,
        grids={
            "gamma_multiplier": multipliers,
            "rabi_frequencies": [float(r) for r in rabi_frequencies],
            "kappa": float(kappa),
            "compare_time_optimal": bool(compare_time_optimal),
            "time_optimal_substeps": int(time_optimal_substeps),
        },
    )
    return ScanResult(
        axes={
            "curve": [name for name, _, _ in curves],
            "gamma_multiplier": multipliers,
        },
        rows=rows,
        metadata=metadata,
    )


def _cell_fidelity(amplitudes: np.ndarray) -> np.ndarray:
    """Fidelity of composite cells against their own compensated targets.

    amplitudes holds the computational diagonal (a00, a01, a10, a11) of
    each cell over leading stack axes; the result has the stack shape.
    It is metrics.compensated_fidelity of each cell, except that cells
    where any computational state fails to return carry no usable phase
    and score zero, so they can never qualify.
    """
    returned = np.all(np.abs(amplitudes) > OVERLAP_TOL, axis=-1)
    return np.where(returned, compensated_fidelity(amplitudes), 0.0)


def run_actuating_scan(
    eta_list=(0.5, 1.0, 2.0, 3.0, 4.0),
    threshold: float = 0.96,
    mode: str = "fixed-omega",
    phase_count: int = 48,
    duration_count: int = 300,
    duration_range=(0.02, 3.0),
    independent_phases: bool = False,
) -> ScanResult:
    """Mean actuating area of high-fidelity composite cells versus interaction.

    For each interaction strength v = eta * V0, sweeps the second-pulse
    phase and the common segment duration, builds the composite
    U(phi) U(0) U(phi) U(0), and collects the durations whose cells beat
    the fidelity threshold. The row reports their mean duration and the
    actuating area v * 4 * mean duration. In fixed-omega mode the drive
    stays at the reference ratio times V0 while v varies; fixed-kappa
    mode rescales the drive with v. A quadratic fit of area against v
    lands in the metadata.
    """
    if mode not in ("fixed-omega", "fixed-kappa"):
        raise InvalidParameterError(f"unknown scan mode {mode!r}")
    if not (0.0 < threshold < 1.0):
        raise InvalidParameterError(f"threshold must be in (0, 1), got {threshold}")
    etas = [float(e) for e in eta_list]
    if not etas or not all(math.isfinite(e) and e > 0.0 for e in etas):
        raise InvalidParameterError(f"eta list must be non-empty, finite and positive, got {etas}")
    if int(phase_count) < 1 or int(duration_count) < 1:
        raise InvalidParameterError(
            f"phase and duration counts must be >= 1, got {phase_count}, {duration_count}"
        )
    phases = np.linspace(-math.pi, math.pi, int(phase_count), endpoint=False)
    # Step 0 is the phase-0 segment; step k + 1 has phases[k].
    step_phases = np.concatenate(([0.0], phases))
    lo, hi = float(duration_range[0]), float(duration_range[1])
    if not (0.0 < lo < hi < math.inf):
        raise InvalidParameterError(f"bad duration range {duration_range}")
    durations = np.linspace(lo, hi, int(duration_count))
    # Durations per stacked batch, within the sector_product step budget.
    width = batch_rows(phases.size ** (2 if independent_phases else 1))

    columns = ["eta", "v", "qualifying_cells", "mean_duration", "actuating"]
    rows = []
    for eta in etas:
        v = eta * V0
        rabi = REFERENCE_KAPPA * (V0 if mode == "fixed-omega" else v)
        counts = np.zeros(durations.size, dtype=int)
        for first in range(0, durations.size, width):
            chunk = slice(first, first + width)
            steps = unitary_step(rabi, -v / 2.0, step_phases, v, durations[chunk, None])
            pairs = steps.at(np.s_[:, 1:]) @ steps.at(np.s_[:, :1])
            if independent_phases:
                cells = pairs.at(np.s_[:, :, None]) @ pairs.at(np.s_[:, None])
            else:
                cells = pairs @ pairs
            amplitudes = computational_diagonal(cells)
            check_finite(amplitudes, f"a composite cell at v = {v}", "duration", durations[chunk])
            fidelities = _cell_fidelity(amplitudes)
            fidelities = fidelities.reshape(fidelities.shape[0], -1)
            counts[chunk] = np.count_nonzero(fidelities > threshold, axis=1)
        qualifying = np.repeat(durations, counts)
        count = len(qualifying)
        mean_duration = float(np.mean(qualifying)) if count else float("nan")
        actuating = v * 4.0 * mean_duration if count else float("nan")
        rows.append(
            {
                "eta": eta,
                "v": float(v),
                "qualifying_cells": count,
                "mean_duration": mean_duration,
                "actuating": actuating,
            }
        )

    valid = [(row["v"], row["actuating"]) for row in rows if row["qualifying_cells"] > 0]
    fit_coefficients = None
    relative_residual = None
    if len(valid) >= 3:
        v_values = np.array([v for v, _ in valid])
        areas = np.array([a for _, a in valid])
        coefficients = np.polyfit(v_values, areas, 2)
        predicted = np.polyval(coefficients, v_values)
        relative_residual = float(
            np.linalg.norm(areas - predicted) / np.linalg.norm(areas)
        )
        fit_coefficients = [float(c) for c in coefficients]
    metadata = _metadata(
        columns=columns,
        grids={
            "eta": etas,
            "v0": float(V0),
            "phase_count": int(phase_count),
            "duration_count": int(duration_count),
            "duration_range": [lo, hi],
            "threshold": float(threshold),
            "mode": mode,
            "independent_phases": bool(independent_phases),
        },
        fit_coefficients=fit_coefficients,
        relative_residual=relative_residual,
    )
    return ScanResult(axes={"eta": etas}, rows=rows, metadata=metadata)


def run_gate(kappa: float, v: float = V0, units: str = "natural") -> dict:
    """Gate summary of the four-segment schedule as a JSON-ready dict."""
    schedule = standard_schedule(kappa, v, units=units)
    outcome = gate_outcome(evolution_operator(schedule))
    payload = outcome.to_json_dict()
    payload["metadata"] = _metadata(
        schedule=schedule.to_json_dict(),
        sector_half_phase=float(chi(kappa)),
    )
    return payload
