"""Tests for the experiment pipelines and their CSV export."""

import csv
import inspect
import io
import itertools
import json
import math
import os
import re
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from rydgate import cli, experiments, metrics, propagate, stochastic
from rydgate.errors import IntegratorFailureError, InvalidParameterError, UndefinedPhaseError
from rydgate.experiments import (
    REFERENCE_KAPPA,
    ScanResult,
    _cell_amplitudes,
    _cell_fidelity,
    _decayed_fidelities,
    interior_extrema,
    preparation_operator,
    preparation_rotation,
    run_actuating_scan,
    run_decay_curves,
    run_dynamics,
    run_gate,
    run_interferometer,
    run_noise_map,
    run_thermal_map,
    scan_kappa,
    superposition_state,
)
from rydgate.hamiltonian import build_full
from rydgate.metrics import gate_outcome, gate_summary
from rydgate.model import (
    COMPUTATIONAL_INDICES,
    DecaySpec,
    NoiseSpec,
    PulseSegment,
    Schedule,
    ThermalSpec,
    basis_state,
    cyclic_segment_duration,
    standard_phases,
    standard_schedule,
    time_optimal_schedule,
)
from rydgate.propagate import evolution_operator, row_batches, sector_product, sector_unitary

V = 2.0 * math.pi
# The default decay drives, in MHz and in rad/us.
DEFAULT_DECAY_RABI = (5.0, 10.0, 20.0)
DEFAULT_DECAY_RABI_RAD = tuple(2.0 * math.pi * f for f in DEFAULT_DECAY_RABI)
# An int beyond the float range.
BIG = 10**400


def rows_per_batch(width: int, exponentials: int | None = None) -> int:
    """The whole rows of `width` steps, gauged from `exponentials`
    exponentials each, that one batch of row_batches takes."""
    return next(row_batches(propagate._BATCH_BLOCKS + 1, width, exponentials)).stop


class TestScanResult:
    def test_csv_and_metadata_sibling(self, tmp_path):
        result = ScanResult(
            axes={"x": [1.0, 2.0]},
            table={"x": np.array([1.0, 2.0]), "y": np.array([0.5, float("nan")])},
            metadata={"columns": ["x", "y"], "tool": "rydgate"},
        )
        path = tmp_path / "scan.csv"
        meta_path = result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,nan"
        assert meta_path == tmp_path / "scan.meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["tool"] == "rydgate"

    @pytest.mark.parametrize("before", [None, b"", b"x", b"x" * 30_000])
    def test_to_csv_rewrites_in_place(self, before, tmp_path):
        result = ScanResult(
            axes={"x": [1.0]}, table={"x": np.array([1.0])}, metadata={"tool": "rydgate"}
        )
        path, meta_path = tmp_path / "scan.csv", tmp_path / "scan.meta.json"
        if before is not None:
            for target in (path, meta_path):
                target.write_bytes(before)
        inodes = [target.stat().st_ino for target in (path, meta_path) if target.exists()]
        result.to_csv(path)
        assert path.read_bytes() == b"x\r\n1\r\n"
        assert meta_path.read_text() == json.dumps({"tool": "rydgate"}, indent=2, sort_keys=True) + "\n"
        if before is not None:
            assert inodes == [path.stat().st_ino, meta_path.stat().st_ino]

    def test_rewrite_cuts_to_one_byte_never_to_zero(self, tmp_path, monkeypatch):
        # ext4 (auto_da_alloc) flushes a file emptied by O_TRUNC, or by a
        # truncation to zero, when it is closed.
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 30_000)
        flags, original = [], os.open
        monkeypatch.setattr(os, "open", lambda *args: flags.append(args[1]) or original(*args))
        with experiments.open_output(path) as (handle, regular):
            assert regular and os.fstat(handle.fileno()).st_size == 1
            handle.write("{}\n")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC
        assert path.read_bytes() == b"{}\n"

    def test_nothing_written_leaves_an_empty_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 30_000)
        with experiments.open_output(path):
            pass
        assert path.read_bytes() == b""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_fifo_is_never_truncated(self, tmp_path):
        # ftruncate on a FIFO fails with EINVAL.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with experiments.open_output(fifo) as (handle, regular):
            assert not regular
            handle.write("x\n")
        reader.join(timeout=30)
        assert not reader.is_alive() and received == [b"x\n"]

    def test_columns_keep_the_table_order(self):
        table = {"b": np.array([1]), "a": np.array([2.0]), "c": ["x"]}
        result = ScanResult(axes={}, table=table, metadata={"columns": ["a", "b", "c"]})
        assert result.columns() == ["b", "a", "c"]
        assert result.rows == [{"b": 1, "a": 2.0, "c": "x"}]
        assert type(result.rows[0]["b"]) is int and type(result.rows[0]["a"]) is float

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(InvalidParameterError, match="length"):
            ScanResult(axes={}, table={"a": np.zeros(2), "b": ["x"]})

    @pytest.mark.parametrize("chunk", [1, 2, 3, 256])
    def test_csv_text_is_pinned_for_every_cell_type(self, chunk, monkeypatch):
        # Formatting runs in chunks of rows, column by column; the text
        # stays the same for any chunk size.
        monkeypatch.setattr(experiments, "_CSV_ROWS", chunk)
        table = {
            "name": ["a,b", "c", "d", ""],
            "trials": np.array([100, 7, 0, 1], dtype=np.int64),
            "big": np.array([10**13 + 1, 2**62, -(10**15), 12]),
            "flag": np.array([True, False, True, True]),
            "x": np.array([-0.0, float("nan"), 1.0 / 3.0, 1e-300]),
            "single": np.array([0.1, 0.5, 1.0, 2.0], dtype=np.float32),
        }
        stream = io.StringIO()
        ScanResult(axes={}, table=table).write_rows(stream)
        assert stream.getvalue() == (
            "name,trials,big,flag,x,single\r\n"
            '"a,b",100,10000000000001,1,-0,0.10000000149\r\n'
            "c,7,4611686018427387904,0,nan,0.5\r\n"
            "d,0,-1000000000000000,1,0.333333333333,1\r\n"
            ",1,12,1,1e-300,2\r\n"
        )

    def test_empty_table_writes_an_empty_header(self):
        stream = io.StringIO()
        ScanResult(axes={}, table={}).write_rows(stream)
        assert stream.getvalue() == "\r\n"


def csv_writer_text(table) -> str:
    """The CSV text of a table as csv.writer writes it, with integers and
    bools in full, floats to 12 significant digits and text as is: the
    oracle of ScanResult.write_rows."""

    def cells(values):
        if not isinstance(values, np.ndarray):
            return values
        if values.dtype.kind in "biu":
            return [str(int(value)) for value in values.tolist()]
        return ["%.12g" % value for value in values.tolist()]

    stream = io.StringIO()
    writer = csv.writer(stream)
    writer.writerow(table)
    writer.writerows(zip(*map(cells, table.values())))
    return stream.getvalue()


def written_rows(table) -> str:
    stream = io.StringIO()
    ScanResult(axes={}, table=table).write_rows(stream)
    return stream.getvalue()


@st.composite
def csv_tables(draw):
    """A table of 1 to 5 columns of random kinds and 0 to 12 rows."""
    length = draw(st.integers(0, 12))
    rows = {"min_size": length, "max_size": length}
    texts = st.text(st.sampled_from('ab ,"\r\n%\t') | st.characters(), max_size=4)
    kinds = {
        "float": lambda: np.array(draw(st.lists(st.floats(), **rows)), dtype=float),
        "float32": lambda: np.array(
            draw(st.lists(st.floats(width=32), **rows)), dtype=np.float32
        ),
        "int": lambda: np.array(
            draw(st.lists(st.integers(-(2**63), 2**63 - 1), **rows)), dtype=np.int64
        ),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), **rows)), dtype=bool),
        "text": lambda: draw(st.lists(texts, **rows)),
    }
    names = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    return {name: kinds[draw(st.sampled_from(sorted(kinds)))]() for name in names}


class TestCsvAgainstCsvWriter:
    """write_rows against the csv.writer oracle, byte for byte."""

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda: run_dynamics(1.65, samples_per_segment=2), id="dynamics"),
            pytest.param(lambda: scan_kappa([1.0, 1.5, 2.0]), id="scan-kappa"),
            pytest.param(
                lambda: run_interferometer(kappa_grid=(1.0, 1.5, 2.0)),
                id="interfere",
            ),
            pytest.param(
                lambda: run_noise_map([0.0, 0.05], [0.0, 0.05], trials=2, substeps=4),
                id="noise-map",
            ),
            pytest.param(lambda: run_thermal_map([8.0], [5.0], substeps=10), id="thermal-map"),
            pytest.param(
                lambda: run_decay_curves([5.0], [0.0, 10.0], time_optimal_substeps=7),
                id="decay",
            ),
            pytest.param(
                lambda: run_actuating_scan(eta_list=(1.0,), phase_count=4, duration_count=5),
                id="actuate",
            ),
        ],
    )
    def test_pipeline_tables(self, run, tmp_path):
        result = run()
        expected = csv_writer_text(result.table)
        assert written_rows(result.table) == expected
        result.to_csv(tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_tables_around_one_slice_of_rows(self, offset):
        length = experiments._CSV_ROWS + offset
        rng = np.random.default_rng(length)
        table = {
            "label": [["a", "b,c", ""][k % 3] for k in range(length)],
            "x": rng.normal(size=length),
            "count": rng.integers(-(10**12), 10**12, length),
            "flag": rng.uniform(size=length) < 0.5,
        }
        text = written_rows(table)
        assert text == csv_writer_text(table)
        assert text.count("\r\n") == length + 1

    def test_columns_constant_over_a_slice(self):
        # Three slices: each column is constant over some of them, and
        # varies over others by a -0, a NaN or one other text.
        rows = experiments._CSV_ROWS
        zeros = np.zeros(3 * rows)
        zeros[rows + 7] = -0.0
        zeros[2 * rows :] = np.nan
        label = ["50% a,b"] * (3 * rows)
        label[rows + 3] = "%s"
        table = {
            "label": label,
            "x": zeros,
            "count": np.full(3 * rows, 7),
            "flag": np.arange(3 * rows) < rows,
            "y": np.repeat([1.0 / 3.0, -2.5, 1e-300], rows),
        }
        assert written_rows(table) == csv_writer_text(table)

    @pytest.mark.parametrize(
        "part, spec, quote, cell",
        [
            (np.full(3, 1.0 / 3.0), "%.12g", None, "0.333333333333"),
            (np.array([7, 7]), "%d", None, "7"),
            (np.array([True, True]), "%d", None, "1"),
            (np.array([0.0, -0.0]), "%.12g", None, None),
            (np.array([np.nan, np.nan]), "%.12g", None, None),
            (["5%,x", "5%,x"], "%s", lambda text: f'"{text}"', '"5%%,x"'),
            (["a", "b"], "%s", str, None),
        ],
    )
    def test_a_constant_slice_is_baked_as_template_text(self, part, spec, quote, cell):
        assert experiments._constant_cell(part, spec, quote) == cell

    def test_text_that_needs_quotes(self):
        cells = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "\r\n", '"', "", "plain", " pad ",
                 "%s %d", "tab\there"]
        table = {"text": cells, "x": np.arange(len(cells), dtype=float)}
        assert written_rows(table) == csv_writer_text(table)
        quoted_names = {"a,b": ["x"], 'q"': ["y"], "line\nbreak": ["z"], "": [""]}
        assert written_rows(quoted_names) == csv_writer_text(quoted_names)

    @pytest.mark.parametrize(
        "table",
        [
            pytest.param({"name": ["", "x", ""]}, id="empty-cells"),
            pytest.param({"": ["a", ""]}, id="empty-name"),
        ],
    )
    def test_an_empty_cell_alone_on_its_row_is_quoted(self, table):
        text = written_rows(table)
        assert text == csv_writer_text(table)
        assert '""\r\n' in text

    def test_numeric_extremes(self):
        info = np.iinfo(np.int64)
        table = {
            "int": np.array([info.min, info.max, 0, -1, 1, 7], dtype=np.int64),
            "uint": np.array([np.iinfo(np.uint64).max, 0, 1, 2, 3, 4], dtype=np.uint64),
            "flag": np.array([True, False, True, False, False, True]),
            "single": np.array([0.1, -0.0, np.inf, np.nan, 3.4e38, 1e-45], dtype=np.float32),
            "double": np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324]),
            "big": np.array([1.7976931348623157e308, 1.0 / 3.0, 2.0**53, -2.5, 1e16, 0.1]),
        }
        assert written_rows(table) == csv_writer_text(table)

    @given(csv_tables(), st.integers(1, 5))
    def test_random_column_mixes(self, table, chunk):
        # Slices of 1 to 5 rows, so the random tables cross slice bounds.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_CSV_ROWS", chunk)
            assert written_rows(table) == csv_writer_text(table)


def dumped(value) -> str:
    """The oracle of experiments.json_text."""
    return json.dumps(value, indent=2, sort_keys=True)


# Text with the characters that a template or json's escaping could trip on.
json_texts = st.text(
    st.sampled_from('%s%"\\\x00\x1f\x7f\n\t\u00e9\u2603') | st.characters(), max_size=5
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from(
        [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1.7976931348623157e308]
    )
    | json_texts
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_texts, inner, max_size=4),
    max_leaves=24,
)


class TestJsonAgainstJsonDumps:
    """json_text against json.dumps(indent=2, sort_keys=True), byte for byte."""

    @given(json_values)
    def test_random_values(self, value):
        assert experiments.json_text(value) == dumped(value)

    def test_edge_leaves_and_empty_containers(self):
        value = {
            "%s %d %%": [
                "%", "%(x)s", '"quoted"', "\x00\x1f\x7f\n\t", "caf\u00e9 \u2603 \U0001f600"
            ],
            "floats": [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                       1e16, 0.1, np.float64(1.5), np.float64(math.nan), np.float64(-math.inf)],
            "ints": [2**200, -(2**64), 0, True, False, None],
            "empty": {"list": [], "tuple": (), "dict": {}, "text": ""},
            "\u00e9": {"b": 1, "a": (2, [3, {"c": None}])},
        }
        assert experiments.json_text(value) == dumped(value)
        for leaf in (1.5, "%", None, [], {}, ()):
            assert experiments.json_text(leaf) == dumped(leaf)

    def test_one_layout_different_leaves(self):
        # Both values share a cached template; only the leaves differ.
        first, second = {"a": [1.0, "x"], "b": None}, {"a": [math.nan, "%s"], "b": True}
        assert experiments.json_text(first) == dumped(first)
        assert experiments.json_text(second) == dumped(second)

    def test_keys_json_converts_are_left_to_it(self):
        value = {"a": {2: "two", 1: "one"}, "b": {1.5: None, -3: [1]}, "c": {True: 0, False: 1}}
        assert experiments.json_text(value) == dumped(value)

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(np.int64(3), id="int64"),
            pytest.param({"a": [np.int64(3)]}, id="nested-int64"),
            pytest.param({1, 2}, id="set"),
            pytest.param({"a": {"b": {1, 2}}}, id="nested-set"),
            pytest.param(np.bool_(True), id="numpy-bool"),
            pytest.param({"a": 1, 2: "b"}, id="unsortable-keys"),
            pytest.param({(1, 2): 3}, id="tuple-key"),
        ],
    )
    def test_rejected_values_raise_as_json_does(self, value):
        with pytest.raises(Exception) as expected:
            dumped(value)
        with pytest.raises(expected.type):
            experiments.json_text(value)

    def test_a_circular_value_raises_as_json_does(self):
        value = {"a": []}
        value["a"].append(value)
        with pytest.raises(ValueError, match="Circular reference"):
            experiments.json_text(value)

    @pytest.mark.parametrize("units", ["natural", "mhz"])
    def test_gate_record_and_scan_metadata(self, units):
        record = run_gate(1.65, V, units=units)
        assert experiments.json_text(record) == dumped(record)
        metadata = scan_kappa(np.linspace(0.2, 5.0, 25)).metadata
        assert experiments.json_text(metadata) == dumped(metadata)


class TestInteriorExtrema:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ([0.0, 1.0, 0.0], 1),
            ([0.0, 1.0, 2.0, 3.0], 0),
            ([3.0, 2.0, 1.0], 0),
            ([0.0, 1.0, 1.0, 0.0], 1),
            ([1.0, 0.0, 1.0, 0.0, 1.0], 3),
            ([1.0], 0),
        ],
    )
    def test_counts(self, values, expected):
        assert interior_extrema(values) == expected


# Every runner grid as a call that takes it, with the name its errors carry.
RUNNER_GRIDS = [
    pytest.param(lambda grid: scan_kappa(grid), "kappa", id="scan-kappa"),
    pytest.param(lambda grid: run_interferometer(kappa_grid=grid), "kappa", id="interfere"),
    pytest.param(
        lambda grid: run_noise_map(eta_omega_grid=grid, trials=1, substeps=4), "eta_omega",
        id="noise-omega",
    ),
    pytest.param(
        lambda grid: run_noise_map(eta_delta_grid=grid, trials=1, substeps=4), "eta_delta",
        id="noise-delta",
    ),
    pytest.param(
        lambda grid: run_thermal_map(distance_grid=grid, substeps=10), "distance",
        id="thermal-distance",
    ),
    pytest.param(
        lambda grid: run_thermal_map(temperature_grid=grid, substeps=10), "temperature",
        id="thermal-temperature",
    ),
    pytest.param(
        lambda grid: run_decay_curves(multiplier_grid=grid), "gamma multiplier",
        id="decay-multipliers",
    ),
    pytest.param(
        lambda grid: run_decay_curves(rabi_frequencies=grid, compare_time_optimal=False),
        "rabi frequency", id="decay-rabi",
    ),
    pytest.param(lambda grid: run_actuating_scan(eta_list=grid), "eta", id="actuate-eta"),
    pytest.param(
        lambda grid: run_actuating_scan(eta_list=(1.0,), duration_range=grid),
        "duration range bound", id="actuate-duration-range",
    ),
]


# Grids that no runner takes. None is one too where no default grid
# stands in for it.
BAD_GRIDS = [
    pytest.param(np.ones((2, 2)), id="2d-array"),
    pytest.param([[1.0, 2.0], [3.0, 4.0]], id="2d-list"),
    pytest.param([], id="empty-list"),
    pytest.param(np.array([]), id="empty-array"),
    pytest.param(5.0, id="scalar"),
    pytest.param([1.0, [2.0, 3.0]], id="ragged"),
]
NO_GRID = pytest.param(None, id="none")
GRIDS_WITHOUT_DEFAULT = {"scan-kappa", "interfere", "actuate-eta", "actuate-duration-range"}


class TestGridEntries:
    """Each grid entry must be a real number: float() would take True as 1."""

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda: run_actuating_scan(eta_list=[True]), "eta", id="eta"),
            pytest.param(lambda: run_actuating_scan(eta_list=[2.0, True]), "eta", id="eta-mixed"),
            pytest.param(
                lambda: run_actuating_scan(eta_list=[1.0], duration_range=(True, 2.0)),
                "duration range bound", id="duration-range",
            ),
            pytest.param(
                lambda: run_thermal_map(distance_grid=[True], temperature_grid=[False]),
                "distance", id="thermal",
            ),
            pytest.param(
                lambda: run_thermal_map(distance_grid=[8.0], temperature_grid=np.array([False])),
                "temperature", id="thermal-bool-array",
            ),
            pytest.param(
                lambda: run_noise_map(eta_omega_grid=[0.0], eta_delta_grid=[False]),
                "eta_delta", id="noise",
            ),
            pytest.param(lambda: run_decay_curves(multiplier_grid=[True]), "gamma multiplier",
                         id="decay"),
            pytest.param(lambda: run_decay_curves(rabi_frequencies=[True]), "rabi frequency",
                         id="decay-rabi"),
            pytest.param(lambda: scan_kappa([1.0, True]), "kappa", id="scan-kappa"),
            pytest.param(lambda: run_interferometer(kappa_grid=(True,)), "kappa", id="interfere"),
        ],
    )
    def test_booleans_are_rejected(self, call, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be a real number, got "):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda: run_decay_curves(rabi_frequencies=["5"]), "rabi frequency",
                         id="decay-rabi-text"),
            pytest.param(lambda: scan_kappa([1.0, None]), "kappa", id="scan-kappa-none"),
            pytest.param(lambda: run_actuating_scan(eta_list=[1.0, 2j]), "eta", id="eta-complex"),
        ],
    )
    def test_entries_that_are_not_real_numbers_are_rejected(self, call, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be a real number, got "):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda: scan_kappa([BIG]), "kappa", id="scan-kappa"),
            pytest.param(lambda: scan_kappa([Fraction(BIG)]), "kappa", id="scan-kappa-fraction"),
            pytest.param(
                lambda: propagate.evolution_blocks(standard_schedule(1.65, V), None, [BIG]),
                "decay rates", id="evolution-blocks",
            ),
            pytest.param(lambda: run_decay_curves([BIG]), "rabi frequency", id="decay-rabi"),
            pytest.param(
                lambda: run_decay_curves(None, [BIG]), "gamma multiplier", id="decay-multiplier"
            ),
            pytest.param(lambda: PulseSegment(1, 0, 0, BIG), "segment duration", id="segment"),
            pytest.param(lambda: standard_schedule(BIG, 1.0), "kappa", id="standard-schedule"),
            pytest.param(lambda: run_gate(1.65, BIG), "interaction", id="gate"),
            pytest.param(lambda: run_interferometer([1.0], v=BIG), "interaction", id="interfere"),
            pytest.param(lambda: run_actuating_scan([BIG]), "eta", id="actuate"),
            pytest.param(lambda: run_thermal_map([BIG], [1.0]), "distance", id="thermal-map"),
        ],
    )
    def test_numbers_beyond_the_float_range_are_rejected(self, call, name):
        # float() of such a number raises OverflowError.
        expected = rf"^{name} must be a real number within the float range, got \D*{BIG}"
        with pytest.raises(InvalidParameterError, match=expected):
            call()

    @pytest.mark.parametrize(
        "call, name, grid",
        [
            pytest.param(*runner.values, grid.values[0], id=f"{runner.id}-{grid.id}")
            for runner in RUNNER_GRIDS
            for grid in BAD_GRIDS + [NO_GRID] * (runner.id in GRIDS_WITHOUT_DEFAULT)
        ],
    )
    def test_grids_that_are_not_one_dimensional_or_are_empty_are_rejected(
        self, call, name, grid
    ):
        # A 2-D array once raised TypeError, an empty multiplier grid
        # returned a table with no rows, and None where no default grid
        # stands in for it raised TypeError from np.linspace.
        message = f"^{name} grid must be a non-empty 1-D sequence of numbers, got "
        with pytest.raises(InvalidParameterError, match=message):
            call(grid)

    @pytest.mark.parametrize(
        "call, name, value",
        [
            pytest.param(lambda: run_decay_curves(rabi_frequencies=[-5.0]), "rabi frequency",
                         "-5.0", id="decay-rabi"),
            pytest.param(lambda: run_actuating_scan(eta_list=[1.0, 0.0]), "eta", "0.0",
                         id="eta"),
            pytest.param(lambda: run_actuating_scan(eta_list=[math.nan]), "eta", "nan",
                         id="eta-nan"),
            pytest.param(lambda: run_interferometer(kappa_grid=[1.0, math.inf]), "kappa", "inf",
                         id="interfere"),
            pytest.param(
                lambda: run_actuating_scan(eta_list=[1.0], duration_range=(0.0, 1.0)),
                "duration range bound", "0.0", id="duration-range",
            ),
        ],
    )
    def test_positive_grids_reject_other_values(self, call, name, value):
        with pytest.raises(
            InvalidParameterError, match=f"^{name} must be finite and > 0, got {value}$"
        ):
            call()

    @pytest.mark.parametrize(
        "duration_range",
        [(1.0,), (1.0, 2.0, 3.0), (2.0, 1.0), (1.0, 1.0)],
        ids=["one-bound", "three-bounds", "reversed", "equal"],
    )
    def test_the_duration_range_is_two_rising_bounds(self, duration_range):
        # One bound once raised IndexError, and a third was dropped.
        with pytest.raises(InvalidParameterError, match="^duration range must be two bounds"):
            run_actuating_scan(eta_list=[1.0], duration_range=duration_range)

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(
                lambda value: run_decay_curves(
                    rabi_frequencies=(2.0 * math.pi * 5.0,), multiplier_grid=[1.0],
                    compare_time_optimal=value,
                ),
                "compare_time_optimal", id="decay",
            ),
            pytest.param(
                lambda value: run_actuating_scan(
                    eta_list=(1.0,), phase_count=4, duration_count=5, independent_phases=value
                ),
                "independent_phases", id="actuate",
            ),
        ],
    )
    @pytest.mark.parametrize("value", ["no", 0, 1.0, None])
    def test_flags_that_are_not_booleans_are_rejected(self, call, name, value):
        # "no" once scanned independent phases and recorded true.
        with pytest.raises(InvalidParameterError, match=f"^{name} must be a bool, got "):
            call(value)

    def test_numpy_booleans_are_flags(self):
        result = run_actuating_scan(
            eta_list=(1.0,), phase_count=4, duration_count=5, independent_phases=np.bool_(True)
        )
        assert result.metadata["grids"]["independent_phases"] is True
        result = run_decay_curves(
            rabi_frequencies=(2.0 * math.pi * 5.0,), multiplier_grid=[1.0],
            compare_time_optimal=np.bool_(False),
        )
        assert result.metadata["grids"]["compare_time_optimal"] is False
        assert result.axes["curve"] == ["geo-5mhz"]

    def test_numbers_of_any_kind_pass(self):
        assert experiments._axis("x", [1, 2.5, np.float32(0.5), np.int64(3)]) == [1.0, 2.5, 0.5, 3.0]
        assert experiments._axis("x", np.arange(3)) == [0.0, 1.0, 2.0]
        assert experiments._axis("x", range(1, 3), positive=True) == [1.0, 2.0]
        assert experiments._axis("x", None, (0.0, 1.0, 3)) == [0.0, 0.5, 1.0]


class TestDynamics:
    def test_rows_and_columns(self):
        result = run_dynamics(1.65, V, samples_per_segment=5)
        assert result.columns()[:2] == ["initial", "t"]
        assert len(result.rows) == 4 * (1 + 4 * 5)
        initials = {row["initial"] for row in result.rows}
        assert initials == {"00", "01", "10", "11"}
        for row in result.rows:
            total = sum(row[f"P{label}"] for label in (
                "00", "01", "0r", "10", "11", "1r", "r0", "r1", "rr",
            ))
            assert total <= 1.0 + 1e-9

    @pytest.mark.parametrize("samples", [1, 5, 600])
    def test_rows_equal_one_propagation_per_initial_state(self, samples):
        # One propagation gives each state's record as an operator column:
        # the same bits as propagate_state of that basis state.
        from rydgate.model import BASIS_LABELS, COMPUTATIONAL_LABELS, basis_state, standard_schedule
        from rydgate.propagate import IntegratorConfig, propagate_state

        result = run_dynamics(1.65, V, samples_per_segment=samples)
        config = IntegratorConfig(samples_per_segment=samples)
        rows = iter(result.rows)
        for label in COMPUTATIONAL_LABELS:
            alone = propagate_state(standard_schedule(1.65, V), basis_state(label), config)
            for t, populations, norm in zip(alone.times, alone.populations, alone.norms):
                row = next(rows)
                assert row["initial"] == label and row["t"] == t and row["norm"] == norm
                assert [row[f"P{name}"] for name in BASIS_LABELS] == populations.tolist()
        assert next(rows, None) is None

    def test_double_occupation_is_visited(self):
        result = run_dynamics(1.65, V, samples_per_segment=25)
        doubly = [row["Prr"] for row in result.rows if row["initial"] == "11"]
        assert max(doubly) > 0.1


class TestScanKappa:
    def test_row_per_grid_point(self):
        grid = np.linspace(0.5, 2.0, 7)
        result = scan_kappa(grid, V)
        assert len(result.rows) == 7
        kappas = [row["kappa"] for row in result.rows]
        np.testing.assert_allclose(kappas, grid)
        for row in result.rows:
            assert -2.0 * math.pi < row["delta_gamma"] <= 0.0
            assert 0.0 <= row["fidelity"] <= 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            scan_kappa([], V)

    def test_matches_per_point_oracle(self):
        # Longer than one stacked batch of 4-segment rows of one
        # exponential each, and holding the reference ratio.
        grid = np.sort(np.append(np.linspace(0.2, 5.0, rows_per_batch(4, 1) + 40), REFERENCE_KAPPA))
        result = scan_kappa(grid, V)
        assert len(result.rows) == grid.size
        for kappa, row in zip(grid, result.rows):
            outcome = gate_outcome(evolution_operator(standard_schedule(kappa, V)))
            expected = {"kappa": kappa, "delta_gamma": outcome.delta_gamma}
            for label, probability in outcome.return_probabilities.items():
                expected[f"return_{label}"] = probability
            expected["fidelity"] = outcome.fidelity
            expected["leakage"] = outcome.leakage
            assert set(row) == set(expected)
            for name, value in expected.items():
                assert row[name] == pytest.approx(value, abs=1e-12), (kappa, name)

    def test_rows_equal_the_nine_by_nine_summary_of_one_stack(self):
        # Scored in batches from the computational diagonal, bit for bit
        # as gate_summary scores the 9x9 operators of the whole grid.
        grid = np.linspace(0.3, 4.0, 2 * rows_per_batch(4, 1) + 17)
        durations = np.array([cyclic_segment_duration(k, V) for k in grid])
        product = sector_product(
            grid[:, None] * V, -V / 2.0, standard_phases(), V, durations[:, None]
        )
        summary = gate_summary(sector_unitary(product))
        fields = ("delta_gamma", "return_probabilities", "fidelity", "leakage")
        expected = np.column_stack([grid] + [summary[name] for name in fields])
        result = scan_kappa(grid, V)
        actual = np.array([[row[name] for name in result.columns()] for row in result.rows])
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, math.inf, math.nan, 1e200])
    def test_bad_point_rejected(self, kappa):
        with pytest.raises(InvalidParameterError):
            scan_kappa([1.0, kappa, 2.0], V)


class TestNoiseMap:
    def test_grid_and_reproducibility(self):
        grid = [0.0, 0.02]
        first = run_noise_map(
            eta_omega_grid=grid, eta_delta_grid=grid, trials=3, seed=7, substeps=10
        )
        second = run_noise_map(
            eta_omega_grid=grid, eta_delta_grid=grid, trials=3, seed=7, substeps=10
        )
        assert len(first.rows) == 4
        for a, b in zip(first.rows, second.rows):
            assert a == b

    def test_the_nominal_gate_is_scored_once_per_map(self, monkeypatch):
        calls = []
        nominal_gate = experiments._nominal_gate
        monkeypatch.setattr(
            experiments, "_nominal_gate", lambda *args: calls.append(args) or nominal_gate(*args)
        )
        result = run_noise_map([0.0, 0.02], [0.0, 0.01], trials=2, seed=5, substeps=4)
        assert calls == [(REFERENCE_KAPPA, experiments.V0)]
        # Each cell as monte_carlo_gate_fidelity scores it on its own.
        for i, j, row in zip([0, 0, 1, 1], [0, 1, 0, 1], result.rows):
            seed = int(np.random.SeedSequence([5, i, j]).generate_state(1, dtype=np.uint64)[0])
            spec = NoiseSpec(eta_omega=row["eta_omega"], eta_delta=row["eta_delta"],
                             substeps=4, seed=seed)
            cell = stochastic.monte_carlo_gate_fidelity(REFERENCE_KAPPA, experiments.V0, spec, 2)
            assert row["mean_fidelity"] == cell.mean_fidelity
            assert row["std_fidelity"] == cell.std_fidelity

    def test_quiet_cell_matches_nominal(self):
        result = run_noise_map(
            eta_omega_grid=[0.0], eta_delta_grid=[0.0], trials=2, seed=3, substeps=10
        )
        row = result.rows[0]
        assert row["std_fidelity"] == 0.0
        assert row["mean_fidelity"] == pytest.approx(0.9993107882, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [{"eta_omega_grid": []}, {"eta_delta_grid": []}, {"seed": -1}],
        ids=["empty-omega", "empty-delta", "negative-seed"],
    )
    def test_rejected_inputs(self, kwargs):
        with pytest.raises(InvalidParameterError):
            run_noise_map(trials=1, substeps=4, **kwargs)

    @pytest.mark.parametrize("field", ["trials", "seed", "substeps"])
    @pytest.mark.parametrize("count", [2.7, 2.0, "3", None, True])
    def test_rejects_counts_that_are_not_integers(self, field, count):
        # int() once ran 2.7 substeps as 2 and True trials as 1.
        counts = {"trials": 2, "seed": 3, "substeps": 4, field: count}
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            run_noise_map([0.01], [0.0], **counts)


class TestThermalMap:
    def test_grid_rows(self):
        result = run_thermal_map(
            distance_grid=[6.0, 8.0],
            temperature_grid=[5.0],
            substeps=150,
        )
        assert len(result.rows) == 2
        closer, farther = result.rows[0], result.rows[1]
        assert closer["distance"] == 6.0
        assert farther["distance"] == 8.0
        assert closer["fidelity"] < farther["fidelity"]

    @pytest.mark.parametrize("axis", ["distance_grid", "temperature_grid"])
    def test_empty_grid_rejected(self, axis):
        with pytest.raises(InvalidParameterError):
            run_thermal_map(**{axis: []}, substeps=10)

    def test_the_nominal_gate_is_scored_once_per_map(self, monkeypatch):
        calls = []
        nominal_gate = experiments._nominal_gate
        monkeypatch.setattr(
            experiments, "_nominal_gate", lambda *args: calls.append(args) or nominal_gate(*args)
        )
        result = run_thermal_map([6.0, 8.0], [0.0, 10.0], "physical", substeps=40)
        assert calls == [(REFERENCE_KAPPA, experiments.V0)]
        # Each cell as thermal_gate_fidelity scores it on its own.
        for row in result.rows:
            spec = ThermalSpec(row["distance"], row["temperature"], exponent_mode="physical")
            cell = stochastic.thermal_gate_fidelity(REFERENCE_KAPPA, experiments.V0, spec, 40)
            assert row["fidelity"] == cell


class TestInterferometer:
    def test_preparation_rotation_is_unitary(self):
        q = preparation_rotation()
        np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-15)
        b = preparation_operator()
        np.testing.assert_allclose(b.conj().T @ b, np.eye(9), atol=1e-15)

    def test_rotation_sense(self):
        q = preparation_rotation()
        zero = np.array([1.0, 0.0, 0.0], dtype=complex)
        one = np.array([0.0, 1.0, 0.0], dtype=complex)
        np.testing.assert_allclose(q @ zero, (zero + one) / math.sqrt(2.0), atol=1e-15)
        np.testing.assert_allclose(q @ one, (one - zero) / math.sqrt(2.0), atol=1e-15)

    def test_identity_interaction_swaps_population(self):
        # Two beamsplitters back to back take |10> to |11| up to sign,
        # so a trivial interaction leaves nothing in |10>.
        b = preparation_operator()
        final = b @ (b @ basis_state("10"))
        assert abs(final[4]) ** 2 == pytest.approx(1.0)
        assert abs(final[3]) ** 2 == pytest.approx(0.0, abs=1e-15)

    def test_reference_sweep_values(self):
        result = run_interferometer(kappa_grid=tuple(np.linspace(1.0, 5.0, 41)))
        assert len(result.rows) == 41
        by_kappa = {round(row["kappa"], 6): row for row in result.rows}
        row = by_kappa[1.6]
        assert row["p10"] == pytest.approx(0.0015459006512, abs=1e-9)
        assert row["p11"] == pytest.approx(0.0716758845656, abs=1e-9)
        sums = [row["p10"] + row["p11"] for row in result.rows]
        assert min(sums) < 1.0 - 1e-3

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            run_interferometer(kappa_grid=())
        with pytest.raises(InvalidParameterError):
            run_interferometer(kappa_grid=(1.0,), v=-1.0)
        with pytest.raises(InvalidParameterError):
            run_interferometer(kappa_grid=(0.0,))
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                run_interferometer(kappa_grid=(1.0, bad))
            with pytest.raises(InvalidParameterError):
                run_interferometer(kappa_grid=(1.0,), v=bad)
            with pytest.raises(InvalidParameterError):
                run_interferometer(kappa_grid=(1.0,), reference_kappa=bad)
        with pytest.raises(InvalidParameterError, match="drive kappa"):
            run_interferometer(kappa_grid=(1e200,), v=1e200)

    def test_rows_match_per_point_oracle(self):
        # Longer than one stacked batch of single-segment rows.
        grid = np.linspace(0.5, 5.0, rows_per_batch(1) + 40)
        result = run_interferometer(kappa_grid=tuple(grid))
        splitter = preparation_operator()
        duration = cyclic_segment_duration(REFERENCE_KAPPA, V)
        assert len(result.rows) == grid.size
        for kappa, row in zip(grid, result.rows):
            segment = PulseSegment(rabi=kappa * V, detuning=-V / 2.0, phase=0.0, duration=duration)
            operator = evolution_operator(Schedule(segments=(segment,), interaction=V))
            final = splitter @ (operator @ (splitter @ basis_state("10")))
            assert row["kappa"] == kappa
            assert row["p10"] == pytest.approx(abs(final[3]) ** 2, rel=0.0, abs=1e-12)
            assert row["p11"] == pytest.approx(abs(final[4]) ** 2, rel=0.0, abs=1e-12)


class TestScoredFromSectorForm:
    def test_noise_thermal_and_interferometer_build_no_nine_by_nine_operator(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a 9x9 operator was built or scored")

        patched = 0
        for original in (propagate.sector_unitary, metrics.gate_fidelity):
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "rydgate":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, refuse)
                        patched += 1
        assert patched >= 3
        with pytest.raises(AssertionError, match="9x9"):
            evolution_operator(standard_schedule(REFERENCE_KAPPA, V))
        noise = run_noise_map([0.0, 0.02], [0.01], trials=3, substeps=4)
        thermal = run_thermal_map([6.0], [0.0, 10.0], substeps=10)
        interfere = run_interferometer(kappa_grid=(1.0, 1.65, 2.0))
        assert [len(r.rows) for r in (noise, thermal, interfere)] == [2, 2, 3]


class TestDecayCurves:
    def test_small_sweep(self):
        result = run_decay_curves(
            rabi_frequencies=(2.0 * math.pi * 5.0,),
            multiplier_grid=[0.0, 5.0, 10.0],
            compare_time_optimal=False,
        )
        assert [row["curve"] for row in result.rows] == ["geo-5mhz"] * 3
        fidelities = [row["fidelity"] for row in result.rows]
        assert fidelities[0] == pytest.approx(1.0, abs=1e-9)
        assert fidelities[1] == pytest.approx(0.9980476256, abs=1e-9)
        assert fidelities[2] == pytest.approx(0.9922146233, abs=1e-9)
        assert result.rows[1]["gamma"] == pytest.approx(5.0 * 2.0 * math.pi * 0.01)

    def test_runs_no_scipy_function(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm was called")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        scipy_files = set()

        def record(frame, event, arg):
            if event == "call" and f"{os.sep}scipy{os.sep}" in frame.f_code.co_filename:
                scipy_files.add(frame.f_code.co_filename)

        sys.setprofile(record)
        try:
            result = run_decay_curves(
                rabi_frequencies=(2.0 * math.pi * 5.0,),
                multiplier_grid=[0.0, 5.0],
                time_optimal_substeps=8,
            )
        finally:
            sys.setprofile(None)
        assert not scipy_files
        assert [row["curve"] for row in result.rows] == ["geo-5mhz"] * 2 + ["time-optimal"] * 2
        assert result.rows[1]["fidelity"] == pytest.approx(0.9980476256, abs=1e-9)

    @pytest.mark.parametrize(
        "rabi, multipliers",
        [
            ((5.0, 10.3), [0.0, 5.0, 10.0]),
            ((5.0,), [1e5, 0.0, 5.0]),
            ((19.1,), [0.0]),
        ],
    )
    def test_each_rate_matches_its_density_propagation(self, rabi, multipliers):
        # The stacked curves against one propagate_density per rate, scored
        # by conditional_state_fidelity as the curves once were.
        result = run_decay_curves(
            rabi_frequencies=tuple(2.0 * math.pi * f for f in rabi),
            multiplier_grid=multipliers,
            time_optimal_substeps=8,
        )
        psi = superposition_state()
        rho = np.outer(psi, psi.conj())
        expected = []
        for f in rabi:
            v = 2.0 * math.pi * f / REFERENCE_KAPPA
            schedule = standard_schedule(REFERENCE_KAPPA, v, units="mhz")
            expected.append((schedule, propagate.IntegratorConfig(samples_per_segment=1)))
        config = propagate.IntegratorConfig(mode=propagate.SUBSTEPPED, substeps_per_segment=8)
        expected.append((time_optimal_schedule(), config))
        fidelities = []
        for schedule, config in expected:
            free = propagate.propagate_density(schedule, rho, DecaySpec(0.0), config)
            reference = free.final_state
            for multiplier in multipliers:
                decay = DecaySpec.from_multiplier(multiplier)
                decayed = propagate.propagate_density(schedule, rho, decay, config).final_state
                fidelities.append(metrics.conditional_state_fidelity(decayed, reference))
        np.testing.assert_allclose(result.table["fidelity"], fidelities, rtol=0.0, atol=1e-12)

    def test_two_products_and_no_density(self, monkeypatch):
        # One stack for the standard curves, one for the comparison curve.
        def refuse(*args, **kwargs):
            raise AssertionError("a density path ran")

        monkeypatch.setattr(propagate, "propagate_density", refuse)
        monkeypatch.setattr(metrics, "conditional_state_fidelity", refuse)
        calls, original = [], propagate.sector_product
        counted = lambda *args: calls.append(1) or original(*args)  # noqa: E731
        monkeypatch.setattr(propagate, "sector_product", counted)
        monkeypatch.setattr(experiments, "sector_product", counted)
        result = run_decay_curves(
            rabi_frequencies=tuple(2.0 * math.pi * f for f in (5.0, 10.0, 20.0)),
            multiplier_grid=np.linspace(0.0, 10.0, 21),
            time_optimal_substeps=8,
        )
        assert len(result.axes["curve"]) == 4
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "rabi, multipliers, stacked_rows",
        [
            pytest.param(DEFAULT_DECAY_RABI, np.linspace(0.0, 10.0, 21), [], id="default"),
            pytest.param(DEFAULT_DECAY_RABI, np.linspace(0.0, 10.0, 201), [603], id="201-rates"),
            pytest.param(DEFAULT_DECAY_RABI, np.linspace(0.0, 1e5, 21), [], id="squarings"),
            pytest.param((7.3,), np.linspace(0.0, 10.0, 21), [], id="one-curve"),
        ],
    )
    def test_stacked_curves_equal_each_curve_alone(
        self, monkeypatch, rabi, multipliers, stacked_rows
    ):
        # Rows of the (curves, rates) stack against one evolution_blocks
        # stack per curve, bit for bit: states and scored fidelities.
        rows, original = [], propagate.row_products
        monkeypatch.setattr(
            propagate, "row_products",
            lambda drive, count, *args: rows.append(count) or original(drive, count, *args),
        )
        rabis = [2.0 * math.pi * f for f in rabi]
        schedules = [
            standard_schedule(REFERENCE_KAPPA, r / REFERENCE_KAPPA, units="mhz") for r in rabis
        ]
        gammas = [DecaySpec.from_multiplier(m).gamma for m in multipliers]
        rates, index = np.unique([0.0] + gammas, return_inverse=True)
        psi = superposition_state()
        stacked = experiments._standard_states(schedules, rates, psi)
        assert rows == stacked_rows
        alone = np.array([
            sector_unitary(propagate.evolution_blocks(s, None, rates)) @ psi for s in schedules
        ])
        np.testing.assert_array_equal(stacked, alone)
        result = run_decay_curves(rabis, multipliers, compare_time_optimal=False)
        expected = [
            _decayed_fidelities(states[index], name, [0.0] + list(multipliers))
            for states, name in zip(alone, result.axes["curve"])
        ]
        np.testing.assert_array_equal(result.table["fidelity"], np.concatenate(expected))

    def test_the_standard_curves_take_one_step_call(self, monkeypatch):
        calls, original = [], propagate.sector_step
        monkeypatch.setattr(
            propagate, "sector_step", lambda *args: calls.append(1) or original(*args)
        )
        result = run_decay_curves(DEFAULT_DECAY_RABI_RAD, compare_time_optimal=False)
        assert result.axes["curve"] == ["geo-5mhz", "geo-10mhz", "geo-20mhz"]
        assert len(calls) == 1

    def test_a_nan_curve_in_a_mixed_stack_is_named(self):
        # At this multiplier only the 5 MHz curve's steps, the longest,
        # pass the 1-norm limit 2^53: its rows are NaN beside finite ones.
        multiplier = 1e18
        rates = np.array([0.0, DecaySpec.from_multiplier(multiplier).gamma])
        schedules = [
            standard_schedule(REFERENCE_KAPPA, r / REFERENCE_KAPPA, units="mhz")
            for r in DEFAULT_DECAY_RABI_RAD
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            states = experiments._standard_states(schedules, rates, superposition_state())
            assert not np.isfinite(states[0, 1]).all()
            assert np.isfinite(states[0, 0]).all() and np.isfinite(states[1:]).all()
            message = (
                f"the surviving population of curve geo-5mhz is not finite at gamma multiplier"
                f" = {multiplier}: {propagate.NAN_STEP}"
            )
            with pytest.raises(IntegratorFailureError, match=re.escape(message)):
                run_decay_curves(
                    DEFAULT_DECAY_RABI_RAD, [0.0, multiplier], compare_time_optimal=False
                )

    @pytest.mark.parametrize(
        "curve, options",
        [
            (
                "geo-5mhz",
                {"rabi_frequencies": (2.0 * math.pi * 5.0,), "compare_time_optimal": False},
            ),
            ("time-optimal", {"rabi_frequencies": (), "time_optimal_substeps": 7}),
        ],
    )
    def test_nan_steps_name_the_curve_and_the_multiplier(self, curve, options):
        # gamma dt near 1e297 is beyond the 1-norm limit 2^53 of the step
        # exponential: NaN steps, never a nan fidelity.
        message = (
            f"the surviving population of curve {curve} is not finite at gamma multiplier"
            f" = 1e+300: {propagate.NAN_STEP}"
        )
        with pytest.raises(IntegratorFailureError, match=re.escape(message)):
            run_decay_curves(multiplier_grid=[0.0, 5.0, 1e300], **options)

    def test_growing_survival_fails(self, monkeypatch):
        # Decayed steps scaled by 1.01 make the surviving population grow.
        original = propagate.expm
        monkeypatch.setattr(propagate, "expm", lambda matrix: 1.01 * original(matrix))
        with pytest.raises(
            IntegratorFailureError,
            match=r"population of curve geo-5mhz grew from 1 to .* at gamma multiplier = 0\.0$",
        ):
            run_decay_curves(
                rabi_frequencies=(2.0 * math.pi * 5.0,),
                multiplier_grid=[5.0],
                compare_time_optimal=False,
            )

    def test_lost_survival_fails(self):
        states = np.zeros((3, 9), dtype=complex)
        states[:2, 0] = 1.0
        with pytest.raises(
            IntegratorFailureError, match=r"curve c is lost: .* at gamma multiplier = 7\.0$"
        ):
            _decayed_fidelities(states, "c", [0.0, 5.0, 7.0])

    @pytest.mark.parametrize("substeps", [2.7, "8", None])
    def test_rejects_substeps_that_are_not_integers(self, substeps):
        # int() once truncated 2.7 to 2 substeps.
        with pytest.raises(InvalidParameterError, match="substeps_per_segment must be an integer"):
            run_decay_curves(multiplier_grid=[1.0], time_optimal_substeps=substeps)

    @pytest.mark.parametrize(
        "substeps, message", [(True, "be an integer"), (2.7, "be an integer"), (0, "lie in")]
    )
    def test_substeps_are_checked_without_the_comparison_curve(self, substeps, message):
        # Unchecked, True once went into the metadata as 1 and 0 as 0.
        with pytest.raises(InvalidParameterError, match=f"substeps_per_segment must {message}"):
            run_decay_curves(
                rabi_frequencies=(2.0 * math.pi * 5.0,), multiplier_grid=[1.0],
                compare_time_optimal=False, time_optimal_substeps=substeps,
            )

    def test_the_comparison_curve_runs_alone(self):
        for empty in ((), [], np.array([])):
            result = run_decay_curves(rabi_frequencies=empty, multiplier_grid=[1.0],
                                      time_optimal_substeps=8)
            assert result.axes["curve"] == ["time-optimal"]
            assert result.metadata["grids"]["rabi_frequencies"] == []

    def test_faster_drive_decays_less(self):
        result = run_decay_curves(
            rabi_frequencies=(2.0 * math.pi * 5.0, 2.0 * math.pi * 20.0),
            multiplier_grid=[10.0],
            compare_time_optimal=False,
        )
        slow, fast = result.rows[0], result.rows[1]
        assert fast["fidelity"] > slow["fidelity"]


class TestActuatingScan:
    def test_small_scan_is_frozen(self):
        result = run_actuating_scan(
            eta_list=(1.0,), phase_count=8, duration_count=40
        )
        row = result.rows[0]
        assert row["qualifying_cells"] == 5
        assert row["mean_duration"] == pytest.approx(0.860512820513, abs=1e-9)
        assert row["actuating"] == pytest.approx(21.6270460419, abs=1e-8)

    def test_empty_cells_produce_nan(self):
        result = run_actuating_scan(
            eta_list=(1.0,),
            threshold=0.999999,
            phase_count=4,
            duration_count=5,
        )
        row = result.rows[0]
        assert row["qualifying_cells"] == 0
        assert math.isnan(row["mean_duration"])
        assert math.isnan(row["actuating"])
        assert result.metadata["fit_coefficients"] is None

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            run_actuating_scan(mode="locked")
        with pytest.raises(InvalidParameterError):
            run_actuating_scan(threshold=1.5)
        with pytest.raises(InvalidParameterError):
            run_actuating_scan(eta_list=())

    @pytest.mark.parametrize("threshold", ["0.9", True, math.nan])
    def test_threshold_that_is_not_a_finite_number_is_rejected(self, threshold):
        with pytest.raises(InvalidParameterError, match="threshold"):
            run_actuating_scan(eta_list=(1.0,), threshold=threshold, phase_count=4, duration_count=5)

    @pytest.mark.parametrize("axis", ["phase_count", "duration_count"])
    def test_empty_grid_rejected(self, axis):
        with pytest.raises(InvalidParameterError):
            run_actuating_scan(eta_list=(1.0,), **{axis: 0})

    @pytest.mark.parametrize(
        "phi,duration", [(-math.pi / 2.0, 0.86), (0.7, 0.3), (2.0, 1.7), (-2.4, 2.5)]
    )
    def test_cell_fidelity_matches_gate_outcome(self, phi, duration):
        # Oracle: scipy expm of each full segment operator, scored by
        # gate_outcome against the operator's own compensated target.
        segments = tuple(
            PulseSegment(rabi=1.65 * V, detuning=-V / 2.0, phase=p, duration=duration)
            for p in (0.0, phi, 0.0, phi)
        )
        oracle = np.eye(9, dtype=complex)
        for segment in segments:
            oracle = expm(-1j * build_full(segment, V) * duration) @ oracle
        operator = evolution_operator(Schedule(segments=segments, interaction=V))
        assert np.max(np.abs(operator - oracle)) < 1e-12
        amplitudes = operator[COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES]
        assert _cell_fidelity(amplitudes) == pytest.approx(
            gate_outcome(oracle).fidelity, abs=1e-12
        )

    def test_stacked_cell_fidelity_matches_each_cell(self):
        def cell(phi, duration):
            segments = tuple(
                PulseSegment(rabi=1.65 * V, detuning=-V / 2.0, phase=p, duration=duration)
                for p in (0.0, phi, 0.0, phi)
            )
            return evolution_operator(Schedule(segments=segments, interaction=V))

        # A resonant pi pulse moves |01> and |10> entirely to the Rydberg level.
        stranded = evolution_operator(
            Schedule(
                segments=(PulseSegment(rabi=V, detuning=0.0, phase=0.0, duration=0.5),),
                interaction=0.0,
            )
        )
        with pytest.raises(UndefinedPhaseError):
            gate_outcome(stranded)
        cells = np.array(
            [
                [cell(-math.pi / 2.0, 0.86), cell(0.7, 0.3), stranded],
                [cell(2.0, 1.7), cell(-2.4, 2.5), cell(1.1, 0.05)],
            ]
        )
        stacked = _cell_fidelity(cells[..., COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES])
        assert stacked.shape == (2, 3)
        for index in np.ndindex(2, 3):
            expected = 0.0 if index == (0, 2) else gate_outcome(cells[index]).fidelity
            assert stacked[index] == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _per_cell_scan(eta, threshold, mode, phase_count, durations, independent):
        """Qualifying durations, one gate_outcome of a four-segment schedule per cell."""
        v = eta * V
        rabi = REFERENCE_KAPPA * (V if mode == "fixed-omega" else v)
        phases = np.linspace(-math.pi, math.pi, phase_count, endpoint=False)
        if independent:
            pairs = list(itertools.product(phases, repeat=2))
        else:
            pairs = [(phi, phi) for phi in phases]
        qualifying = []
        for t in durations:
            for first, second in pairs:
                segments = tuple(
                    PulseSegment(rabi=rabi, detuning=-v / 2.0, phase=p, duration=t)
                    for p in (0.0, first, 0.0, second)
                )
                operator = evolution_operator(Schedule(segments=segments, interaction=v))
                try:
                    fidelity = gate_outcome(operator).fidelity
                except UndefinedPhaseError:
                    fidelity = 0.0
                if fidelity > threshold:
                    qualifying.append(t)
        return qualifying

    @pytest.mark.parametrize("mode", ["fixed-omega", "fixed-kappa"])
    @pytest.mark.parametrize("independent", [False, True])
    def test_matches_per_cell_oracle(self, mode, independent):
        etas, threshold, phase_count, duration_count = (0.5, 2.0), 0.8, 5, 12
        result = run_actuating_scan(
            eta_list=etas,
            threshold=threshold,
            mode=mode,
            phase_count=phase_count,
            duration_count=duration_count,
            duration_range=(0.1, 2.5),
            independent_phases=independent,
        )
        durations = np.linspace(0.1, 2.5, duration_count)
        for eta, row in zip(etas, result.rows):
            expected = self._per_cell_scan(
                eta, threshold, mode, phase_count, durations, independent
            )
            assert expected, "grid too coarse: no cell qualifies"
            assert row["qualifying_cells"] == len(expected)
            assert row["mean_duration"] == pytest.approx(np.mean(expected), abs=1e-12)

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("durations", [(0.02, 3.0, 42), (1e-4, 0.05, 30)])
    def test_cell_amplitudes_equal_the_full_product(self, independent, eta, durations):
        # The short durations put triple blocks of every class of the
        # cos/sin series into one stack.
        v = eta * experiments.V0
        phases = np.concatenate(([0.0], np.linspace(-math.pi, math.pi, 9, endpoint=False)))
        steps = propagate.sector_step(
            REFERENCE_KAPPA * experiments.V0, -v / 2.0, phases, v, np.linspace(*durations)[:, None]
        )
        pairs = steps.at(np.s_[:, 1:]) @ steps.at(np.s_[:, :1])
        if independent:
            full = pairs.at(np.s_[:, :, None]) @ pairs.at(np.s_[:, None])
        else:
            full = pairs @ pairs
        np.testing.assert_array_equal(
            _cell_amplitudes(pairs, independent), propagate.computational_diagonal(full)
        )

    @pytest.mark.parametrize("field", ["phase_count", "duration_count"])
    @pytest.mark.parametrize("count", [2.7, 2.0, "3", None, True])
    def test_rejects_counts_that_are_not_integers(self, field, count):
        # int() once scanned 2.7 phases as 2 and True durations as 1.
        counts = {"phase_count": 3, "duration_count": 4, field: count}
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            run_actuating_scan(eta_list=(1.0,), **counts)

    def test_independent_phases_superset(self):
        shared = run_actuating_scan(
            eta_list=(1.0,), phase_count=6, duration_count=12
        )
        free = run_actuating_scan(
            eta_list=(1.0,),
            phase_count=6,
            duration_count=12,
            independent_phases=True,
        )
        assert (
            free.rows[0]["qualifying_cells"] >= shared.rows[0]["qualifying_cells"]
        )


class TestGateSummary:
    @pytest.mark.parametrize("kappa", [0.3, 0.8, 1.65, 2.2, 3.0])
    @pytest.mark.parametrize("units", ["natural", "mhz"])
    def test_payload_equals_the_9x9_oracle(self, kappa, units):
        # run_gate scores the sector form; the 9x9 operator's gate_outcome
        # is the oracle, and its JSON must match exactly.
        payload = run_gate(kappa, V, units=units)
        del payload["metadata"]
        operator = evolution_operator(standard_schedule(kappa, V, units=units))
        assert payload == gate_outcome(operator).to_json_dict()

    @pytest.mark.parametrize("units", ["natural", "mhz"])
    def test_every_ratio_equals_the_9x9_oracle_bit_for_bit(self, units):
        # run_gate scores propagate.standard_diagonal, one exponential per
        # point, where the oracle takes each of the four segments' own.
        for kappa in np.append(np.linspace(0.2, 5.0, 201), REFERENCE_KAPPA):
            payload = run_gate(kappa, V, units=units)
            del payload["metadata"]
            operator = evolution_operator(standard_schedule(kappa, V, units=units))
            assert payload == gate_outcome(operator).to_json_dict(), kappa

    def test_scan_rows_equal_the_gate_at_each_ratio(self):
        # More points than one batch of scan_kappa, so the rows span batches.
        grid = np.append(np.linspace(0.2, 5.0, rows_per_batch(4, 1) + 9), REFERENCE_KAPPA)
        for row in scan_kappa(grid, V).rows:
            payload = run_gate(row["kappa"], V)
            expected = {
                "kappa": row["kappa"],
                "delta_gamma": payload["delta_gamma"],
                **{f"return_{k}": p for k, p in payload["return_probabilities"].items()},
                "fidelity": payload["fidelity"],
                "leakage": payload["leakage"],
            }
            assert row == expected, row["kappa"]

    def test_payload_fields(self):
        payload = run_gate(1.65, V)
        assert payload["delta_gamma"] == pytest.approx(-3.1514260051, abs=1e-9)
        assert payload["metadata"]["tool"] == "rydgate"
        assert "schedule" in payload["metadata"]
        assert payload["metadata"]["sector_half_phase"] == pytest.approx(
            0.4706274795, abs=1e-9
        )

    def test_superposition_state(self):
        psi = superposition_state()
        assert np.linalg.norm(psi) == pytest.approx(1.0)
        assert psi[0] == 0.5 and psi[1] == 0.5 and psi[3] == 0.5 and psi[4] == 0.5
        assert psi[2] == 0.0


# Every pipeline on a tiny grid, each flag that reaches its runner set.
RECORDED_COMMANDS = {
    "gate": ["gate", "--kappa", "1.65", "--units", "mhz"],
    "dynamics": ["dynamics", "--kappa", "1.4", "--v", "5", "--samples", "2"],
    "scan-kappa": ["scan-kappa", "--min", "1", "--max", "2", "--steps", "3"],
    "noise-map": ["noise-map", "--steps", "2", "--trials", "2", "--substeps", "4", "--seed", "7"],
    "thermal-map": [
        "thermal-map", "--dsteps", "1", "--tsteps", "2", "--substeps", "10",
        "--exponent-mode", "physical",
    ],
    "interfere": [
        "interfere", "--min", "1", "--max", "2", "--steps", "3", "--reference-kappa", "2.5",
    ],
    "decay": ["decay", "--rabi", "5,10", "--rsteps", "2", "--to-substeps", "7"],
    "decay-no-time-optimal": ["decay", "--rabi", "5", "--rsteps", "2", "--no-time-optimal"],
    "actuate": [
        "actuate", "--etas", "1,2", "--phase-count", "4", "--duration-count", "5",
        "--independent-phases", "--mode", "fixed-kappa",
    ],
}


def replay(meta: dict):
    """The runner call a record holds, run again."""
    return getattr(experiments, meta["runner"])(**meta["grids"])


class TestRunRecord:
    """Each output records the runner call that made it: its name and every
    argument as bound, enough to make the output again."""

    @pytest.mark.parametrize("argv", RECORDED_COMMANDS.values(), ids=RECORDED_COMMANDS)
    def test_a_record_replays_its_output(self, argv, tmp_path, monkeypatch):
        monkeypatch.delenv("RYDGATE_SEED", raising=False)
        if argv[0] == "gate":
            out = tmp_path / "gate.json"
            assert cli.main(argv + ["--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert experiments.json_text(replay(payload["metadata"])) + "\n" == out.read_text()
            return
        out, again = tmp_path / "out.csv", tmp_path / "again.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        meta = out.with_suffix(".meta.json")
        replay(json.loads(meta.read_text())).to_csv(again)
        assert again.read_bytes() == out.read_bytes()
        assert again.with_suffix(".meta.json").read_bytes() == meta.read_bytes()

    @pytest.mark.parametrize(
        "call, grid",
        [
            pytest.param(
                lambda: run_noise_map(
                    eta_omega_grid=None, eta_delta_grid=np.array([0.0]), trials=np.int64(2),
                    seed=np.int64(7), substeps=np.int64(4), kappa=np.float64(1.65),
                ),
                "eta_omega_grid", id="noise-map",
            ),
            pytest.param(
                lambda: run_decay_curves(
                    rabi_frequencies=None, multiplier_grid=np.linspace(0.0, 1.0, 2),
                    compare_time_optimal=np.bool_(True), time_optimal_substeps=np.int64(7),
                ),
                "rabi_frequencies", id="decay",
            ),
        ],
    )
    def test_a_library_call_records_plain_json(self, call, grid, monkeypatch):
        # numpy scalars are no plain JSON: json_text would hand them to
        # json.dumps, which raises. A default grid is recorded as null.
        result = call()
        meta = result.metadata
        assert meta["grids"][grid] is None
        expected = dumped(meta)

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        text = experiments.json_text(meta)
        monkeypatch.undo()
        assert text == expected
        again = replay(json.loads(text))
        assert again.rows == result.rows
        assert again.metadata == meta

    def test_other_real_numbers_are_recorded_as_floats(self):
        # The runners take any real number; numpy keeps a Fraction, and a
        # numpy scalar beside it, as they are in an object array.
        result = scan_kappa([np.float32(0.5), Fraction(3, 2)], v=Fraction(6))
        assert result.metadata["grids"] == {"kappa_grid": [0.5, 1.5], "v": 6.0}
        assert experiments.json_text(result.metadata) == dumped(result.metadata)

    def test_the_actuating_record_holds_what_the_benchmark_tracer_reads(self):
        # perfbench/tracer.py counts an actuating scan's cells from these.
        result = run_actuating_scan(eta_list=(1.0, 2.0), phase_count=4, duration_count=5)
        grids = result.metadata["grids"]
        assert (grids["phase_count"], grids["duration_count"]) == (4, 5)
        assert grids["independent_phases"] is False
        assert result.axes["eta"] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "runner",
        [run_gate, run_dynamics, scan_kappa, run_noise_map, run_thermal_map,
         run_interferometer, run_decay_curves, run_actuating_scan],
        ids=lambda runner: runner.__name__,
    )
    def test_a_recorded_runner_keeps_its_name_and_signature(self, runner):
        # The CLI reads its flag defaults from this signature, and the
        # recorder maps a call onto it as Signature.bind would only while
        # every parameter is positional-or-keyword.
        signature = inspect.signature(runner)
        assert signature == inspect.signature(runner.__wrapped__)
        assert runner.__name__ == runner.__wrapped__.__name__
        kinds = {parameter.kind for parameter in signature.parameters.values()}
        assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_the_record_is_the_bound_call(self):
        # Positional, keyword and default arguments, as bind binds them.
        result = run_interferometer([1.0, 2.0], reference_kappa=np.float64(2.5))
        bound = inspect.signature(run_interferometer).bind([1.0, 2.0], reference_kappa=2.5)
        bound.apply_defaults()
        assert result.metadata["grids"] == bound.arguments
        assert list(result.metadata["grids"]) == list(bound.arguments)
