"""Reproducible experiment pipelines built on the core modules.

Each runner returns a ScanResult: the table of the scan as named
columns (numpy arrays, or lists of text), plus the axes that generated
them and metadata that records the call (run_gate returns a JSON-ready
dict whose "metadata" holds the same record). ScanResult.to_csv writes
the table through one row template and drops the metadata next to the
CSV as a sibling .meta.json file.

The record is the runner call (_recorded): "runner" names the runner and
"grids" holds every argument as it was bound, defaults included, as
plain JSON; a default grid left as None is recorded as null, which the
runner expands again. getattr(experiments, meta["runner"])(**meta["grids"])
replays a record, and gives the same table.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import stat
from collections.abc import Sized
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import InvalidParameterError
from .geometry import chi
from .metrics import (
    OVERLAP_TOL,
    GateOutcome,
    compensated_fidelity,
    diagonal_summary,
)
from .model import (
    BASE_DECAY_RATE,
    BASIS_LABELS,
    COMPUTATIONAL_INDICES,
    COMPUTATIONAL_LABELS,
    MAX_NOISE_AMPLITUDE,
    V0,
    DecaySpec,
    NoiseSpec,
    Schedule,
    ThermalSpec,
    check_count,
    check_finite_number,
    check_number,
    cyclic_segment_duration,
    standard_phases,
    standard_schedule,
    time_optimal_schedule,
)
from .propagate import (
    SUBSTEPPED,
    IntegratorConfig,
    SectorBlocks,
    check_finite,
    check_survival,
    computational_diagonal,
    evolution_blocks,
    flat_drive,
    propagate_basis,
    row_batches,
    sector_product,
    sector_step,
    sector_unitary,
    standard_diagonal,
)
from .stochastic import MAX_TRIALS, _monte_carlo, _nominal_gate, _thermal

REFERENCE_KAPPA = 1.65

# Default grids as np.linspace arguments, decay drives in MHz, actuate modes.
NOISE_GRID = (0.0, MAX_NOISE_AMPLITUDE, 6)
DISTANCE_GRID = (4.0, 8.0, 5)
TEMPERATURE_GRID = (1.0, 20.0, 5)
MULTIPLIER_GRID = (0.0, 10.0, 21)
DECAY_RABI_MHZ = (5.0, 10.0, 20.0)
ACTUATE_MODES = ("fixed-omega", "fixed-kappa")


# Rows that ScanResult.write_rows formats at once, which bounds the
# memory its formatted cells take.
_CSV_ROWS = 256


def _csv_text(text: str, alone: bool) -> str:
    """A text cell as csv.writer's minimal quoting writes it: in quotes,
    with each quote doubled, when it holds a comma, a quote or a line
    break, and as "" when it is empty and alone on its row."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or ('""' if alone else "")


def _constant_cell(part, spec: str, quote):
    """The row-template text of a slice of a column whose entries all
    hold one value, with its % signs doubled; None when they do not.
    A numeric slice is constant when its entries have the bits of its
    first and that is not NaN, so that -0 and 0 stay apart; a text
    slice when every entry is its first (quote gives its CSV text)."""
    first = part[0]
    if quote is not None:
        return quote(first).replace("%", "%%") if part.count(first) == len(part) else None
    bits = part.view(f"u{part.itemsize}")
    if first != first or not (bits == bits[0]).all():
        return None
    return spec % part.item(0)


# Layouts whose %-templates json_text keeps: a process writes a few.
_JSON_LAYOUTS = 32

# Non-finite floats as json writes them, keyed by float.__repr__.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _NotPlainJson(Exception):
    """A value that json_text leaves to json.dumps: one with a dict key
    that is not a str, or a type other than dict, list, tuple, str, int,
    float, bool and None (a subclass, such as np.float64, included)."""


def _json_layout(value, leaves: list):
    """The layout of a JSON value, each leaf's text or argument appended
    to leaves in order.

    A leaf's layout is its template text: "%r" for a finite float (whose
    %r is float.__repr__, as json writes it), "%d" for an int, "%s" for
    a str (json's ASCII escape) or a non-finite float (NaN, Infinity,
    -Infinity), and true, false or null as they stand. A list or tuple
    is (None, items) and a dict (keys, items), its keys sorted.
    """
    kind = type(value)
    if kind is float:
        if value - value == 0.0:
            leaves.append(value)
            return "%r"
        leaves.append(_JSON_NONFINITE[float.__repr__(value)])
        return "%s"
    if kind is str:
        leaves.append(encode_basestring_ascii(value))
        return "%s"
    if kind is int:
        leaves.append(value)
        return "%d"
    if kind is dict:
        # An unsortable mix of keys raises TypeError, as json.dumps does.
        keys = sorted(value)
        for key in keys:
            if type(key) is not str:
                raise _NotPlainJson
        return tuple(keys), tuple([_json_layout(value[key], leaves) for key in keys])
    if kind is list or kind is tuple:
        return None, tuple([_json_layout(item, leaves) for item in value])
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise _NotPlainJson


@lru_cache(maxsize=_JSON_LAYOUTS)
def _json_template(layout) -> str:
    """The %-template of json.dumps(indent=2) for a _json_layout."""

    def render(layout, indent: str) -> str:
        if type(layout) is str:
            return layout
        keys, items = layout
        if not items:
            return "[]" if keys is None else "{}"
        inner = indent + "  "
        if keys is None:
            parts = [inner + render(item, inner) for item in items]
        else:
            # A key is template text, so its % signs are doubled.
            parts = [
                f"{inner}{encode_basestring_ascii(key).replace('%', '%%')}: {render(item, inner)}"
                for key, item in zip(keys, items)
            ]
        opening, closing = "[]" if keys is None else "{}"
        return opening + "\n" + ",\n".join(parts) + "\n" + indent + closing

    return render(layout, "")


def json_text(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    json's indented encoder runs in pure Python. Here one walk of the
    value gives its leaves and its layout (dict keys, list lengths,
    nesting and leaf kinds); the layout's %-template is built once and
    cached (_JSON_LAYOUTS of them), then filled with the leaves. A value
    that the walk leaves out (_NotPlainJson), or nested too deep for
    it, goes to json.dumps, which writes it or raises as it would.
    """
    leaves = []
    try:
        layout = _json_layout(value, leaves)
    except (_NotPlainJson, RecursionError):
        return json.dumps(value, indent=2, sort_keys=True)
    return _json_template(layout) % tuple(leaves)


@contextmanager
def open_output(path, newline=None):
    """Open path for writing as text, as open(path, "w", newline=newline)
    would, but rewrite an existing file in place, keeping its inode and
    mode; a new file gets 0o666 less the umask. Yields the handle and
    whether the file is regular.

    The file is opened without O_TRUNC. ext4 (auto_da_alloc) flushes a
    file truncated to zero when it is closed, which costs each rewrite
    tens of microseconds, so a regular file longer than one byte is cut
    to one byte, which the first write replaces: no old byte outlives a
    partial write. After the body the file is truncated at the written
    length. A file that is not regular, such as /dev/null or a FIFO, is
    never cut or truncated.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as handle:
        status = os.fstat(handle.fileno())
        regular = stat.S_ISREG(status.st_mode)
        if regular and status.st_size > 1:
            os.ftruncate(handle.fileno(), 1)
        yield handle, regular
        if regular:
            handle.truncate()


@dataclass(frozen=True)
class ScanResult:
    """The table of a scan plus the axes and metadata that produced it.

    table maps each column name, in table order, to a 1-D float or
    integer numpy array or a list of str; all columns have one length.
    A runner's metadata names its columns and records its call (see
    _recorded): tool, version, runner and grids, the arguments it ran
    with, beside what the runner adds of its own.
    """

    axes: dict
    table: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {name: len(values) for name, values in self.table.items()}
        if len(set(lengths.values())) > 1:
            raise InvalidParameterError(f"columns differ in length: {lengths}")

    def columns(self) -> list:
        return list(self.table)

    @property
    def rows(self) -> list:
        """The table as one dict per row, with Python scalars."""
        values = [v.tolist() if isinstance(v, np.ndarray) else v for v in self.table.values()]
        return [dict(zip(self.table, row)) for row in zip(*values)]

    def write_rows(self, stream) -> None:
        """Write the header and the table as CSV text to an open stream,
        the text csv.writer would write, _CSV_ROWS rows at a time.

        One %-format row template comes from the column kinds: floats
        take %.12g, integers and bools %d, and text %s, each distinct
        text quoted once. In a table of more than one slice, each slice
        bakes into its template the text of every column that is
        constant over it (_constant_cell), and is formatted from the
        .tolist() of its other columns and written as one string.
        """
        columns = list(self.table.values())
        alone = len(columns) == 1
        stream.write(",".join(_csv_text(name, alone) for name in self.table) + "\r\n")
        specs, quotes = [], []
        for values in columns:
            if isinstance(values, np.ndarray):
                specs.append("%d" if values.dtype.kind in "biu" else "%.12g")
                quotes.append(None)
            else:
                specs.append("%s")
                quotes.append({text: _csv_text(text, alone) for text in set(values)}.__getitem__)
        length = len(columns[0]) if columns else 0
        # A table of one slice takes the template whole, unchecked.
        bake = length > _CSV_ROWS
        for first in range(0, length, _CSV_ROWS):
            rows = slice(first, first + _CSV_ROWS)
            count = min(_CSV_ROWS, length - first)
            parts = [values[rows] for values in columns]
            baked = [_constant_cell(*column) if bake else None for column in zip(parts, specs, quotes)]
            row = ",".join(spec if text is None else text for spec, text in zip(specs, baked)) + "\r\n"
            varying = [(part, quote) for part, quote, text in zip(parts, quotes, baked) if text is None]
            # Row-major cells: column k fills every width-th place from k.
            width = len(varying)
            cells = [None] * (count * width)
            for k, (part, quote) in enumerate(varying):
                cells[k::width] = part.tolist() if quote is None else map(quote, part)
            stream.write(row * count % tuple(cells))

    def to_csv(self, path) -> Path | None:
        """Write the table as CSV, and beside a regular file the metadata
        as a sibling .meta.json, each through open_output; returns the
        .meta.json path, or None when there is none. A device or a FIFO
        (/dev/null, say) takes the CSV alone, so no file appears beside
        it. A failed write removes the regular files it opened, so no
        CSV is left without its metadata, and raises; it never removes
        a file that is not regular."""
        path = Path(path)
        meta_path = path.with_suffix(".meta.json")
        opened = []
        try:
            with open_output(path, newline="") as (handle, regular):
                if regular:
                    opened.append(path)
                self.write_rows(handle)
            if not regular:
                return None
            with open_output(meta_path) as (handle, regular):
                if regular:
                    opened.append(meta_path)
                handle.write(json_text(self.metadata) + "\n")
        except BaseException:
            for written in opened:
                written.unlink(missing_ok=True)
            raise
        return meta_path


def _plain(value):
    """value as plain JSON: np.asarray(value).tolist(), so arrays and
    tuples become lists, numpy scalars Python ones and None null. An
    object array (of a Fraction, say, or of numpy scalars beside an int
    beyond 64 bits) becomes floats first; an int alone stays an int."""
    array = np.asarray(value)
    if array.dtype == object and value is not None and type(value) is not int:
        array = array.astype(float)
    return array.tolist()


def _recorded(runner):
    """The runner, recording each call that returns in its metadata.

    The runner's signature is read once, here, and kept as its
    __signature__. Once a call returns, its metadata (result.metadata,
    or result["metadata"] of a dict) gets tool, version, runner (the
    name) and grids: every argument through _plain, as Signature.bind
    with apply_defaults would bind it. A call the runner rejects is
    never recorded.
    """
    signature = inspect.signature(runner)
    defaults = {name: parameter.default for name, parameter in signature.parameters.items()}

    @wraps(runner)
    def recorded(*args, **kwargs):
        result = runner(*args, **kwargs)
        metadata = result.metadata if isinstance(result, ScanResult) else result["metadata"]
        # The call as Signature.bind binds it, defaults applied: every
        # runner parameter is positional-or-keyword, and the call passed.
        # bind itself added 10-24 us to a 0.31 ms CLI gate call (2-core VM).
        arguments = {**defaults, **dict(zip(defaults, args)), **kwargs}
        grids = {name: _plain(value) for name, value in arguments.items()}
        metadata.update(tool="rydgate", version=__version__, runner=runner.__name__, grids=grids)
        return result

    recorded.__signature__ = signature
    return recorded


def _scan_result(axes: dict, table: dict, **metadata) -> ScanResult:
    """A runner's table with its axes, and metadata that names its columns."""
    return ScanResult(axes, table, {"columns": list(table), **metadata})


def _axis(name: str, grid, default=None, positive: bool = False) -> list:
    """The grid's values as floats, np.linspace(*default) when grid is None.

    The one check of a runner's grid: a non-empty 1-D sequence or array
    whose entries pass check_number, naming the grid (float() would take
    True as 1.0; a float or integer array passes as a whole), each finite
    and > 0 with positive. Anything else, None for a grid with no
    default included, raises InvalidParameterError.
    """
    expected = f"{name} grid must be a non-empty 1-D sequence of numbers"
    if grid is None and default is None:
        raise InvalidParameterError(f"{expected}, got None")
    values = np.linspace(*default) if grid is None else grid
    try:
        shape = np.shape(values)
    except ValueError:
        raise InvalidParameterError(f"{expected}, got a ragged nest of sequences") from None
    if len(shape) != 1 or shape[0] == 0:
        raise InvalidParameterError(f"{expected}, got shape {shape}")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for value in values:
            check_number(name, value)
    floats = [float(x) for x in values]
    if positive:
        for value in floats:
            check_finite_number(name, value, ">")
    return floats


def _flag(name: str, value) -> bool:
    """value, a bool or a numpy bool, as a bool; anything else raises
    InvalidParameterError naming the flag: "no" would count as True."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be a bool, got {value!r}")
    return bool(value)


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


@_recorded
def run_dynamics(
    kappa: float, v: float = V0, samples_per_segment: int = IntegratorConfig.samples_per_segment
) -> ScanResult:
    """Populations over time for each computational initial state."""
    schedule = standard_schedule(kappa, v)
    config = IntegratorConfig(samples_per_segment=samples_per_segment)
    result = propagate_basis(schedule, COMPUTATIONAL_INDICES, config)
    times = result.times
    # Rows by initial state, then time.
    populations = result.populations.swapaxes(0, 1).reshape(-1, len(BASIS_LABELS))
    table = {
        "initial": [label for label in COMPUTATIONAL_LABELS for _ in times],
        "t": np.tile(times, len(COMPUTATIONAL_LABELS)),
        **{f"P{label}": populations[:, k] for k, label in enumerate(BASIS_LABELS)},
        "norm": result.norms.T.reshape(-1),
    }
    return _scan_result(
        {"initial": list(COMPUTATIONAL_LABELS), "t": [float(t) for t in times]},
        table,
        schedule=schedule.to_json_dict(),
    )


@_recorded
def scan_kappa(kappa_grid, v: float = V0) -> ScanResult:
    """Gate summary for each drive-to-interaction ratio on the grid.

    Each point is the four-segment standard_schedule(kappa, v). The
    grid is evaluated in the batches of propagate.row_batches, whole
    points of four steps gauged from one exponential each, each scored
    by diagonal_summary from its propagate.standard_diagonal without a
    9x9 operator, so only the table's columns grow with the grid.
    Raises UndefinedPhaseError when any point leaves a computational
    state behind.
    """
    grid = _axis("kappa", kappa_grid)
    # Validates every point as standard_schedule would.
    durations = np.array([cyclic_segment_duration(kappa, v) for kappa in grid])
    rabi = np.array(grid) * v
    fields = ("delta_gamma", "return_probabilities", "fidelity", "leakage")
    batches = []
    for points in row_batches(len(grid), len(standard_phases())):
        summary = diagonal_summary(standard_diagonal(rabi[points, None], v, durations[points, None]))
        batches.append([summary[name] for name in fields])
    delta_gamma, returns, fidelity, leakage = map(np.concatenate, zip(*batches))
    table = {
        "kappa": np.array(grid),
        "delta_gamma": delta_gamma,
        **{f"return_{label}": returns[:, k] for k, label in enumerate(COMPUTATIONAL_LABELS)},
        "fidelity": fidelity,
        "leakage": leakage,
    }
    return _scan_result({"kappa": grid}, table)


@_recorded
def run_noise_map(
    eta_omega_grid=None,
    eta_delta_grid=None,
    trials: int = 100,
    seed: int = NoiseSpec.seed,
    substeps: int = NoiseSpec.substeps,
    kappa: float = REFERENCE_KAPPA,
    v: float = V0,
) -> ScanResult:
    """Mean Monte-Carlo fidelity on a grid of noise amplitudes.

    Each cell derives an independent seed from the top-level seed and
    its grid position, so single cells can be recomputed in isolation:
    each is monte_carlo_gate_fidelity of its NoiseSpec, against the
    noise-free gate scored once for the whole map.
    """
    omega_axis = _axis("eta_omega", eta_omega_grid, NOISE_GRID)
    delta_axis = _axis("eta_delta", eta_delta_grid, NOISE_GRID)
    check_count("seed", seed, 0)
    check_count("trials", trials, 1, MAX_TRIALS)
    nominal_gate = _nominal_gate(kappa, v)
    results = []
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
                substeps=substeps,
                seed=cell_seed,
            )
            results.append(_monte_carlo(nominal_gate, spec, int(trials)))
    table = {
        "eta_omega": np.repeat(omega_axis, len(delta_axis)),
        "eta_delta": np.tile(delta_axis, len(omega_axis)),
        "mean_fidelity": np.array([result.mean_fidelity for result in results]),
        "std_fidelity": np.array([result.std_fidelity for result in results]),
        "trials": np.array([result.trials for result in results]),
    }
    return _scan_result({"eta_omega": omega_axis, "eta_delta": delta_axis}, table)


@_recorded
def run_thermal_map(
    distance_grid=None,
    temperature_grid=None,
    exponent_mode: str = ThermalSpec.exponent_mode,
    kappa: float = REFERENCE_KAPPA,
    v: float = V0,
    substeps: int = IntegratorConfig.substeps_per_segment,
) -> ScanResult:
    """Gate fidelity versus trap distance and temperature, each cell as
    thermal_gate_fidelity scores it, against the vibration-free gate
    scored once for the whole map. Its vibration aliases at few
    substeps (see there): at 10 or 50 a cell reads the vibration-free
    fidelity."""
    distances = _axis("distance", distance_grid, DISTANCE_GRID)
    temperatures = _axis("temperature", temperature_grid, TEMPERATURE_GRID)
    cells = [
        ThermalSpec(
            equilibrium_distance=distance, temperature=temperature, exponent_mode=exponent_mode
        )
        for distance in distances
        for temperature in temperatures
    ]
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=substeps)
    nominal_gate = _nominal_gate(kappa, v)
    fidelities = [_thermal(nominal_gate, spec, config) for spec in cells]
    table = {
        "distance": np.repeat(distances, len(temperatures)),
        "temperature": np.tile(temperatures, len(distances)),
        "fidelity": np.array(fidelities),
    }
    return _scan_result({"distance": distances, "temperature": temperatures}, table)


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


@_recorded
def run_interferometer(
    kappa_grid, v: float = V0, reference_kappa: float = REFERENCE_KAPPA
) -> ScanResult:
    """Output populations of the beamsplitter-interaction-beamsplitter loop.

    Starts in |10>, applies the beamsplitter to the second atom, one
    interaction segment, and the beamsplitter again, then reads out the
    |10> and |11> populations, |a10 -+ a11|^2 / 4 from the segment's
    diagonal amplitudes a10, a11. The segment duration is frozen at the
    cyclic period of reference_kappa, so that sweeping kappa detunes the
    interferometer instead of retuning it. The segments of the whole
    grid form one sector_product stack.
    """
    kappas = _axis("kappa", kappa_grid, positive=True)
    check_finite_number("interaction", v, ">")
    check_finite_number("reference kappa", reference_kappa, ">")
    check_finite_number("drive kappa * interaction", max(kappas) * v, ">")
    duration = cyclic_segment_duration(reference_kappa, v)
    grid = np.array(kappas)
    product = sector_product(grid[:, None] * v, -v / 2.0, 0.0, v, duration)
    amplitudes = computational_diagonal(product)[:, 2:]
    check_finite(amplitudes, "interferometer state", "kappa", grid)
    a10, a11 = amplitudes.T
    p10, p11 = np.abs(np.stack((a10 - a11, a10 + a11))) ** 2 / 4.0
    table = {"kappa": grid, "p10": p10, "p11": p11}
    return _scan_result({"kappa": kappas}, table)


@_recorded
def run_decay_curves(
    rabi_frequencies=None,
    multiplier_grid=None,
    compare_time_optimal: bool = True,
    time_optimal_substeps: int = 1500,
) -> ScanResult:
    """Conditional state fidelity versus excited-level decay rate.

    Each curve evolves the equal superposition of the computational
    states and scores the surviving state against the decay-free final
    state of the same schedule: one standard schedule at REFERENCE_KAPPA
    per rabi frequency, and the optional comparison curve of the
    single-segment phase-driven schedule, which may also run alone, with
    no rabi frequency.

    The standard curves are the rows of one sector_product stack over
    (curves, rates), each rate a row of the curve's four steps, the
    decay-free rate first (_standard_states); the comparison curve, one
    segment of phase-driven substeps, is one evolution_blocks stack over
    the rates. The final density M rho M^dagger of a pure state is pure
    (there are no jump terms), so each rate's final state phi = M psi
    gives conditional_state_fidelity of its density as
    |<phi_0|phi>|^2 / |phi|^2 (_decayed_fidelities), each curve scored
    in order.
    """
    compare_time_optimal = _flag("compare_time_optimal", compare_time_optimal)
    # Checks the substeps whether or not the comparison curve runs.
    config = IntegratorConfig(mode=SUBSTEPPED, substeps_per_segment=time_optimal_substeps)
    if rabi_frequencies is None:
        rabi_frequencies = tuple(2.0 * math.pi * f for f in DECAY_RABI_MHZ)
    # The comparison curve may run alone: with it, an empty rabi grid is no error.
    empty = isinstance(rabi_frequencies, Sized) and len(rabi_frequencies) == 0
    rabis = [] if empty and compare_time_optimal else _axis(
        "rabi frequency", rabi_frequencies, positive=True
    )
    multipliers = _axis("gamma multiplier", multiplier_grid, MULTIPLIER_GRID)
    # Each distinct rate once, 0 (the reference) first; rows maps them back.
    rates, rows = np.unique(
        [0.0] + [DecaySpec.from_multiplier(m).gamma for m in multipliers], return_inverse=True
    )
    labels, initial = [0.0] + multipliers, superposition_state()
    schedules = [
        standard_schedule(REFERENCE_KAPPA, rabi / REFERENCE_KAPPA, units="mhz") for rabi in rabis
    ]
    curves = [f"geo-{rabi / (2.0 * math.pi):g}mhz" for rabi in rabis]
    fidelities = []
    if schedules:
        for name, states in zip(curves, _standard_states(schedules, rates, initial)):
            fidelities.append(_decayed_fidelities(states[rows], name, labels))
    if compare_time_optimal:
        curves.append("time-optimal")
        blocks = evolution_blocks(time_optimal_schedule(), config, rates)
        states = (sector_unitary(blocks) @ initial)[rows]
        fidelities.append(_decayed_fidelities(states, curves[-1], labels))
    gamma_multiplier = np.tile(multipliers, len(curves))
    table = {
        "curve": [name for name in curves for _ in multipliers],
        "gamma_multiplier": gamma_multiplier,
        "gamma": gamma_multiplier * BASE_DECAY_RATE,
        "fidelity": np.array(fidelities).reshape(-1),
    }
    return _scan_result({"curve": curves, "gamma_multiplier": multipliers}, table)


def _standard_states(schedules, rates, initial) -> np.ndarray:
    """The final states (curves, R, 9) from initial of the exact-mode
    schedules, plain standard ones, at each of the R decay rates.

    Their flat_drive rows share one layout, (1, 1) for rabi, detuning, v
    and dt and (1, steps) for the phase, so the curves stack on a leading
    axis, the rates on the next, as the detuning Delta - i gamma at
    (curves, R, 1): one sector_product, whose row loop never splits a
    row. A step's exponential and gauge are elementwise, so each row
    has the bits of the curve's own evolution_blocks stack.
    """
    exact = IntegratorConfig()
    drives = [flat_drive(schedule, exact) for schedule in schedules]
    rabi, detuning, phase, v, dt = (np.stack(x) for x in zip(*drives))
    product = sector_product(rabi, detuning - 1j * rates[:, None], phase, v, dt)
    return sector_unitary(product) @ initial


def _decayed_fidelities(states: np.ndarray, curve: str, multipliers) -> np.ndarray:
    """Fidelity of each decayed final state states[1:] against the
    decay-free states[0] of a curve, conditioned on survival.

    multipliers names the decay multiplier of each state. Each surviving
    population |phi|^2, grown from 1, takes propagate_density's check
    (propagate.check_survival), which names the curve and the multiplier.
    """
    survival = np.sum(np.abs(states) ** 2, axis=-1)
    what = f"the surviving population of curve {curve}"
    check_survival(
        survival, 1, what, "gamma multiplier", multipliers,
        f"{what} is lost: the decayed product underflowed to 0",
    )
    # Summed per row: a matrix-vector product's rounding depends on the
    # other rows, so a rate's fidelity would depend on the grid around it.
    overlaps = (states[1:] * states[0].conj()).sum(axis=-1)
    return np.abs(overlaps) ** 2 / survival[1:]


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


def _cell_amplitudes(pairs: SectorBlocks, independent_phases: bool) -> np.ndarray:
    """computational_diagonal of the composite cells pairs @ pairs, or of
    every pair of phases with independent_phases.

    The diagonal reads only entry (0, 0) of each block, so each cell is
    row 0 of its left factor times column 0 of its right: the same sum,
    in the same order, as that entry of the full product.
    """
    left, right = pairs, pairs
    if independent_phases:
        left, right = pairs.at(np.s_[:, :, None]), pairs.at(np.s_[:, None])
    cells = SectorBlocks(left.pair[:1], left.triple[:1], left.anti) @ SectorBlocks(
        right.pair[:, :1], right.triple[:, :1], right.anti
    )
    return computational_diagonal(cells)


@_recorded
def run_actuating_scan(
    eta_list=(0.5, 1.0, 2.0, 3.0, 4.0),
    threshold: float = 0.96,
    mode: str = ACTUATE_MODES[0],
    phase_count: int = 48,
    duration_count: int = 300,
    duration_range=(0.02, 3.0),
    independent_phases: bool = False,
) -> ScanResult:
    """Mean actuating area of high-fidelity composite cells versus interaction.

    For each interaction strength v = eta * V0, sweeps the second-pulse
    phase and the common segment duration, builds the composite
    U(phi) U(0) U(phi) U(0), and collects the durations whose cells beat
    the fidelity threshold. Its row reports their mean duration and the
    actuating area v * 4 * mean duration. In fixed-omega mode the drive
    stays at the reference ratio times V0 while v varies; fixed-kappa
    mode rescales the drive with v. A quadratic fit of area against v
    lands in the metadata.
    """
    if mode not in ACTUATE_MODES:
        raise InvalidParameterError(f"unknown scan mode {mode!r}")
    check_finite_number("threshold", threshold)
    if not (0.0 < threshold < 1.0):
        raise InvalidParameterError(f"threshold must be in (0, 1), got {threshold}")
    etas = _axis("eta", eta_list, positive=True)
    check_count("phase_count", phase_count, 1)
    check_count("duration_count", duration_count, 1)
    independent_phases = _flag("independent_phases", independent_phases)
    phases = np.linspace(-math.pi, math.pi, phase_count, endpoint=False)
    # Step 0 is the phase-0 segment; step k + 1 has phases[k].
    step_phases = np.concatenate(([0.0], phases))
    bounds = _axis("duration range bound", duration_range, positive=True)
    if len(bounds) != 2 or not bounds[0] < bounds[1]:
        raise InvalidParameterError(f"duration range must be two bounds, low < high, got {bounds}")
    durations = np.linspace(*bounds, duration_count)
    # Each duration is a row of one step per phase (per phase pair), all
    # gauged from one exponential.
    width = phases.size ** (2 if independent_phases else 1)

    qualifying_cells, mean_durations = [], []
    for eta in etas:
        v = eta * V0
        rabi = REFERENCE_KAPPA * (V0 if mode == "fixed-omega" else v)
        counts = np.zeros(durations.size, dtype=int)
        for chunk in row_batches(durations.size, width):
            steps = sector_step(rabi, -v / 2.0, step_phases, v, durations[chunk, None])
            pairs = steps.at(np.s_[:, 1:]) @ steps.at(np.s_[:, :1])
            amplitudes = _cell_amplitudes(pairs, independent_phases)
            check_finite(amplitudes, f"a composite cell at v = {v}", "duration", durations[chunk])
            fidelities = _cell_fidelity(amplitudes)
            fidelities = fidelities.reshape(fidelities.shape[0], -1)
            counts[chunk] = np.count_nonzero(fidelities > threshold, axis=1)
        qualifying = np.repeat(durations, counts)
        qualifying_cells.append(qualifying.size)
        mean_durations.append(np.mean(qualifying) if qualifying.size else math.nan)
    interactions = np.array(etas) * V0
    mean_duration = np.array(mean_durations)
    table = {
        "eta": np.array(etas),
        "v": interactions,
        "qualifying_cells": np.array(qualifying_cells),
        "mean_duration": mean_duration,
        # nan where no cell qualifies, as the mean duration is.
        "actuating": interactions * 4.0 * mean_duration,
    }

    valid = table["qualifying_cells"] > 0
    fit_coefficients = None
    relative_residual = None
    if np.count_nonzero(valid) >= 3:
        v_values = interactions[valid]
        areas = table["actuating"][valid]
        coefficients = np.polyfit(v_values, areas, 2)
        predicted = np.polyval(coefficients, v_values)
        relative_residual = float(
            np.linalg.norm(areas - predicted) / np.linalg.norm(areas)
        )
        fit_coefficients = [float(c) for c in coefficients]
    return _scan_result(
        {"eta": etas},
        table,
        fit_coefficients=fit_coefficients,
        relative_residual=relative_residual,
    )


@_recorded
def run_gate(kappa: float, v: float = V0, units: str = Schedule.units) -> dict:
    """Gate summary of the four-segment schedule as a JSON-ready dict.

    The schedule validates the inputs and goes into the metadata; the
    summary is scored from propagate.standard_diagonal of its drive, as
    each scan_kappa point is.
    """
    schedule = standard_schedule(kappa, v, units=units)
    segment = schedule.segments[0]
    summary = diagonal_summary(standard_diagonal(segment.rabi, v, segment.duration))
    payload = GateOutcome.from_summary(summary).to_json_dict()
    payload["metadata"] = {
        "schedule": schedule.to_json_dict(),
        "sector_half_phase": float(chi(kappa)),
    }
    return payload
