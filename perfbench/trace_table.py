"""Per-layer table and per-layer metrics from a traced run's span file.

Usage:

    python3 perfbench/trace_table.py perfbench/out/spans-<workload>-seed<n>.jsonl.gz ...

The span file is gzip-compressed JSON lines: a header object, then one
``[id, parent, unit, name, start, end, count]`` array per span. Each
traced pass is a root span named ``bench.pass``, the parent of the pass's
top-level calls. A span's self time is its duration minus the durations
of its direct children; calls run on one thread, so children never
overlap. The untraced remainder of a pass is the time no top-level call
covers: the benchmark's own loop.

No layer has a queue: every call runs to completion on the caller's
thread, so there is no waiting time to report.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import defaultdict

PASS = "bench.pass"
ENGINES = ("propagate.evolution_operator", "propagate.propagate_state", "propagate.propagate_density")
LAYERS = ("cli", "experiments", "stochastic", "geometry", "propagate", "metrics", "hamiltonian", "model")

# Every per-layer metric a traced run reports, as (name, unit, better).
# Values are per traced pass; a function the workload never calls reads 0.
PER_LAYER = (
    [
        ("import.numpy_s", "s", "lower"),
        ("import.scipy_linalg_s", "s", "lower"),
        ("import.rydgate_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("experiments.to_csv.self_s", "s", "lower"),
        ("io.bytes_written", "B", "lower"),
        ("model.standard_schedule.self_s", "s", "lower"),
        ("model.PulseSegment.calls", "count", "lower"),
        ("hamiltonian.build_full.calls", "count", "lower"),
        ("hamiltonian.build_full.self_s", "s", "lower"),
        ("hamiltonian.thermal_interaction.self_s", "s", "lower"),
        ("hamiltonian.apply_decay.self_s", "s", "lower"),
    ]
    + [
        (f"propagate.{f}.{m}", unit, "lower")
        for f in ("evolution_operator", "propagate_state", "propagate_density", "convergence_check")
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("propagate.step_exponentials", "count", "lower"),
        ("propagate.us_per_step", "us", "lower"),
        ("propagate.expm.calls", "count", "lower"),
        ("propagate.expm.self_s", "s", "lower"),
        ("propagate.convergence.useful_ratio", "1", "higher"),
    ]
    + [
        (f"stochastic.{f}.self_s", "s", "lower")
        for f in ("monte_carlo_gate_fidelity", "thermal_gate_fidelity", "sample_noise_trace")
    ]
    + [("stochastic.trials", "count", "higher")]
    + [
        (f"metrics.{f}.{m}", unit, "lower")
        for f in ("gate_outcome", "gate_fidelity", "conditional_state_fidelity")
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("geometry.composite_cyclic_root.self_s", "s", "lower"),
        ("geometry.composite_return_probability.self_s", "s", "lower"),
    ]
    + [
        (f"experiments.{f}.self_s", "s", "lower")
        for f in (
            "run_actuating_scan", "scan_kappa", "run_noise_map", "run_thermal_map",
            "run_decay_curves", "run_dynamics", "run_interferometer",
        )
    ]
    + [("experiments.actuate.cells", "count", "higher")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.remainder_s", "s", "lower"),
    ]
)


def write(path, header: dict, spans) -> None:
    with gzip.open(path, "wt") as handle:
        handle.write(json.dumps(header) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def load(path):
    with gzip.open(path, "rt") as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle]
    return header, spans


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(header: dict, spans) -> dict:
    """Totals per span name over all traced passes, plus consistency figures."""
    child_time = defaultdict(float)
    names = {}
    for span_id, parent, _unit, name, start, end, _count in spans:
        names[span_id] = name
        if parent:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    engine_s = 0.0
    top_level_s = 0.0
    attempted_in_checks = 0
    for span_id, parent, _unit, name, start, end, count in spans:
        duration = end - start
        if names.get(parent) == PASS:
            top_level_s += duration
        calls[name] += 1
        self_s[name] += duration - child_time[span_id]
        counts[name] += count
        if name in ENGINES:
            engine_s += duration
        if name == "propagate.propagate_state" and names.get(parent) == "propagate.convergence_check":
            attempted_in_checks += count
    pass_wall = sum(header["pass_wall_s"])
    return {
        "passes": len(header["pass_wall_s"]),
        "calls": calls,
        "self_s": self_s,
        "counts": counts,
        "engine_s": engine_s,
        "attempted_in_checks": attempted_in_checks,
        "pass_wall_s": pass_wall,
        "self_total_s": sum(v for n, v in self_s.items() if n != PASS),
        "remainder_s": pass_wall - top_level_s,
    }


def check_additivity(totals: dict, tolerance: float = 1e-6) -> str | None:
    """Self times plus the untraced remainder must add up to the traced wall time.

    The wall time is the runner's own clock around each pass, and the
    remainder is that wall minus the top-level calls' span durations, so
    the sum holds only when every span closed under the right parent.
    """
    wall = totals["pass_wall_s"]
    summed = totals["self_total_s"] + totals["remainder_s"]
    if abs(summed - wall) > tolerance * max(1.0, wall) or totals["remainder_s"] < -tolerance:
        return f"self times {totals['self_total_s']:.6f} s + remainder {totals['remainder_s']:.6f} s != traced wall {wall:.6f} s"
    negative = [n for n, v in totals["self_s"].items() if v < -tolerance]
    if negative:
        return f"negative self time in {', '.join(sorted(negative))}"
    return None


def per_layer_metrics(header: dict, totals: dict) -> dict:
    """Every PER_LAYER metric, per traced pass."""
    passes = totals["passes"]
    calls, self_s, counts = totals["calls"], totals["self_s"], totals["counts"]
    steps = sum(counts[name] for name in ENGINES)
    converged = counts["propagate.convergence_check"]
    values = {
        "import.numpy_s": header["import_s"]["numpy"],
        "import.scipy_linalg_s": header["import_s"]["scipy.linalg"],
        "import.rydgate_s": header["import_s"]["rydgate"],
        "io.bytes_written": header["io_bytes_per_pass"],
        "propagate.step_exponentials": steps / passes,
        "propagate.us_per_step": 1e6 * totals["engine_s"] / steps if steps else 0.0,
        "propagate.convergence.useful_ratio": (
            converged / totals["attempted_in_checks"] if totals["attempted_in_checks"] else 0.0
        ),
        "stochastic.trials": counts["stochastic.monte_carlo_gate_fidelity"] / passes,
        "experiments.actuate.cells": counts["experiments.run_actuating_scan"] / passes,
        "trace.wall_s": statistics.median(header["pass_wall_s"]),
        "trace.overhead_s": statistics.median(header["pass_wall_s"]) - statistics.median(header["untraced_wall_s"]),
        "trace.remainder_s": totals["remainder_s"] / passes,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for n, v in self_s.items() if layer_of(n) == layer) / passes
    for name, _unit, _better in PER_LAYER:
        if name in values:
            continue
        function, metric = name.rsplit(".", 1)
        values[name] = (calls[function] if metric == "calls" else self_s[function]) / passes
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def format_table(header: dict, totals: dict) -> str:
    passes = totals["passes"]
    wall = totals["pass_wall_s"] / passes
    lines = [
        f"workload {header['workload']}  seed {header['seed']}  traced passes {passes}"
        f"  traced wall_s {wall:.4f}  untraced wall_s {statistics.median(header['untraced_wall_s']):.4f}",
        f"{'layer / span':48s} {'self s/pass':>12s} {'calls/pass':>11s} {'share':>7s}",
    ]
    by_layer = defaultdict(list)
    for name in totals["self_s"]:
        if name != PASS:
            by_layer[layer_of(name)].append(name)
    for layer in LAYERS:
        members = sorted(by_layer.get(layer, []), key=lambda n: -totals["self_s"][n])
        layer_self = sum(totals["self_s"][n] for n in members) / passes
        layer_calls = sum(totals["calls"][n] for n in members) / passes
        lines.append(f"{layer:48s} {layer_self:12.6f} {layer_calls:11.1f} {layer_self / wall:7.1%}")
        for name in members:
            self_pp = totals["self_s"][name] / passes
            lines.append(
                f"  {name:46s} {self_pp:12.6f} {totals['calls'][name] / passes:11.1f} {self_pp / wall:7.1%}"
            )
    remainder = totals["remainder_s"] / passes
    lines.append(f"{'untraced remainder (benchmark loop)':48s} {remainder:12.6f} {'':11s} {remainder / wall:7.1%}")
    problem = check_additivity(totals)
    lines.append(
        "additivity: " + (f"FAILED: {problem}" if problem else
                          f"self times {totals['self_total_s']:.6f} s + remainder {totals['remainder_s']:.6f} s"
                          f" = traced wall {totals['pass_wall_s']:.6f} s")
    )
    lines.append("waiting: none; no layer has a queue, every call runs to completion on the caller's thread")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        header, spans = load(path)
        totals = analyse(header, spans)
        print(format_table(header, totals))
        print()
        if check_additivity(totals):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
