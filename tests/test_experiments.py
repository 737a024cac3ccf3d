"""Tests for the experiment pipelines and their CSV export."""

import io
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

from rydgate import experiments
from rydgate.errors import InvalidParameterError, UndefinedPhaseError
from rydgate.experiments import (
    REFERENCE_KAPPA,
    InterferometerSpec,
    ScanResult,
    _cell_fidelity,
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
    PulseSegment,
    Schedule,
    basis_state,
    cyclic_segment_duration,
    standard_phases,
    standard_schedule,
)
from rydgate.propagate import batch_rows, evolution_operator, sector_product, sector_unitary

V = 2.0 * math.pi


class TestScanResult:
    def test_csv_and_metadata_sibling(self, tmp_path):
        result = ScanResult(
            axes={"x": [1.0, 2.0]},
            rows=[{"x": 1.0, "y": 0.5}, {"x": 2.0, "y": float("nan")}],
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

    def test_columns_fall_back_to_first_row(self):
        result = ScanResult(axes={}, rows=[{"a": 1, "b": 2}], metadata={})
        assert result.columns() == ["a", "b"]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 256])
    def test_csv_text_is_pinned_for_every_cell_type(self, chunk, monkeypatch):
        # Formatting runs in chunks of rows, column by column; the text
        # stays the same for any chunk size, also for a mixed column.
        monkeypatch.setattr(experiments, "_CSV_ROWS", chunk)
        rows = [
            {"name": "a,b", "trials": 100, "big": 10**13 + 1, "x": -0.0, "mixed": 1},
            {"name": "c", "trials": np.int64(7), "big": np.int64(2**62), "x": float("nan"),
             "mixed": 0.5},
            {"name": "d", "trials": 0, "big": -(10**15), "x": np.float64(1.0 / 3.0),
             "mixed": "text"},
            {"name": "", "trials": True, "big": 12, "x": 1e-300, "mixed": np.float32(0.1)},
        ]
        stream = io.StringIO()
        ScanResult(axes={}, rows=rows).write_rows(stream)
        assert stream.getvalue() == (
            "name,trials,big,x,mixed\r\n"
            '"a,b",100,10000000000001,-0,1\r\n'
            "c,7,4611686018427387904,nan,0.5\r\n"
            "d,0,-1000000000000000,0.333333333333,text\r\n"
            ",1,12,1e-300,0.10000000149\r\n"
        )


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
        # Longer than one stacked batch of 4-segment rows, and holding the
        # reference ratio.
        grid = np.sort(np.append(np.linspace(0.2, 5.0, batch_rows(4) + 40), REFERENCE_KAPPA))
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
        grid = np.linspace(0.3, 4.0, 2 * batch_rows(4) + 17)
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
        spec = InterferometerSpec(kappa_grid=tuple(np.linspace(1.0, 5.0, 41)))
        result = run_interferometer(spec)
        assert len(result.rows) == 41
        by_kappa = {round(row["kappa"], 6): row for row in result.rows}
        row = by_kappa[1.6]
        assert row["p10"] == pytest.approx(0.0015459006512, abs=1e-9)
        assert row["p11"] == pytest.approx(0.0716758845656, abs=1e-9)
        sums = [row["p10"] + row["p11"] for row in result.rows]
        assert min(sums) < 1.0 - 1e-3

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            InterferometerSpec(kappa_grid=())
        with pytest.raises(InvalidParameterError):
            InterferometerSpec(kappa_grid=(1.0,), v=-1.0)
        with pytest.raises(InvalidParameterError):
            InterferometerSpec(kappa_grid=(0.0,))
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                InterferometerSpec(kappa_grid=(1.0, bad))
            with pytest.raises(InvalidParameterError):
                InterferometerSpec(kappa_grid=(1.0,), v=bad)
            with pytest.raises(InvalidParameterError):
                InterferometerSpec(kappa_grid=(1.0,), reference_kappa=bad)
        with pytest.raises(InvalidParameterError, match="drive kappa"):
            InterferometerSpec(kappa_grid=(1e200,), v=1e200)

    def test_rows_match_per_point_oracle(self):
        # Longer than one stacked batch of single-segment rows.
        grid = np.linspace(0.5, 5.0, batch_rows(1) + 40)
        spec = InterferometerSpec(kappa_grid=tuple(grid))
        result = run_interferometer(spec)
        splitter = preparation_operator()
        duration = cyclic_segment_duration(spec.reference_kappa, spec.v)
        assert len(result.rows) == grid.size
        for kappa, row in zip(grid, result.rows):
            segment = PulseSegment(
                rabi=kappa * spec.v, detuning=-spec.v / 2.0, phase=0.0, duration=duration
            )
            operator = evolution_operator(Schedule(segments=(segment,), interaction=spec.v))
            final = splitter @ (operator @ (splitter @ basis_state("10")))
            assert row["kappa"] == kappa
            assert row["p10"] == pytest.approx(abs(final[3]) ** 2, rel=0.0, abs=1e-12)
            assert row["p11"] == pytest.approx(abs(final[4]) ** 2, rel=0.0, abs=1e-12)


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
