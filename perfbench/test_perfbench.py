"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import trace_table  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(capsys, workload: str, trace: int = 0):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(trace_table.PER_LAYER)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(capsys, workload):
    code, result = smoke(capsys, workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert installed_wrappers() == []


def test_traced_smoke_run_reports_every_per_layer_metric(capsys):
    code, result = smoke(capsys, "gate-calls", trace=1)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert installed_wrappers() == []


def test_wrappers_exist_only_inside_the_traced_block():
    import rydgate.cli
    from rydgate import experiments, propagate, stochastic

    originals = (propagate.build_full, propagate.expm, stochastic.evolution_operator,
                 experiments.ScanResult.__dict__["to_csv"], rydgate.cli.main)
    assert installed_wrappers() == []
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            bound = installed_wrappers()
            for name in ("rydgate.propagate.build_full", "rydgate.propagate.expm",
                         "rydgate.stochastic.evolution_operator", "rydgate.experiments.evolution_operator",
                         "rydgate.experiments.ScanResult.to_csv", "rydgate.cli.main"):
                assert name in bound
            propagate.evolution_operator(rydgate.standard_schedule(1.65, 2.0))
            raise RuntimeError("raised inside the traced block")
    assert installed_wrappers() == []
    assert (propagate.build_full, propagate.expm, stochastic.evolution_operator,
            experiments.ScanResult.__dict__["to_csv"], rydgate.cli.main) == originals
    names = [span[3] for span in tracer.spans]
    assert names.count("propagate.evolution_operator") == 1
    assert names.count("hamiltonian.build_full") == 4
    assert [s[6] for s in tracer.spans if s[3] == "propagate.evolution_operator"] == [4]


def test_scaled_clock_runs_at_the_reference_speed_and_restores_sigalrm(monkeypatch):
    import signal
    import time

    from hostspeed import REFERENCE_S, ScaledClock

    clock = ScaledClock(interval=0.01)
    monkeypatch.setattr(clock, "kernel", lambda: 2 * REFERENCE_S)  # a host half the reference speed
    handler = signal.getsignal(signal.SIGALRM)
    with clock:
        start, wall = clock.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.1:
            pass
        scaled, elapsed = clock.now() - start, time.perf_counter() - wall
    assert len(clock.kernel_s) > 3  # the timer fired during the loop
    assert scaled == pytest.approx(elapsed / 2, rel=0.05)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wrong_reference_value_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(workloads.REFERENCES, "gate_fidelity_1.65", (0.5, 1e-9))
    code, result = smoke(capsys, "gate-calls")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_additivity_check_catches_a_misparented_span():
    header = {"pass_wall_s": [1.0], "untraced_wall_s": [1.0]}
    spans = [(1, 0, 0, trace_table.PASS, 0.0, 1.0, 0),
             (2, 1, 1, "cli.main", 0.1, 0.9, 0),
             (3, 2, 1, "experiments.run_gate", 0.2, 0.5, 0)]
    assert trace_table.check_additivity(trace_table.analyse(header, spans)) is None
    broken = spans[:2] + [(3, 1, 1, "experiments.run_gate", 0.2, 0.5, 0)]
    assert trace_table.check_additivity(trace_table.analyse(header, broken)) is not None


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate-calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
