"""rydgate benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a source checkout (the package is imported from
``src``, never from an installed copy):

    python3 perfbench/run.py --workload gate-calls --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process: set-up time is measured first in
fresh interpreters, then one unrecorded warm-up pass, then timed passes
within ``--seconds`` (at least three), each followed by a round of
latency probes (see ``workloads.probe_round``). These times are read on
the scaled clock of ``hostspeed.py``. With
``--trace 1`` untraced and traced passes alternate instead, the spans
go to ``perfbench/out/spans-<workload>-seed<n>.jsonl.gz`` and
the per-layer metrics are reported. ``--workload all`` runs every
workload, each in its own process.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``attempted`` counts output checks (exit codes included),
so ``failed / attempted`` is the failed ratio. The exit code is 0 when
every check passed, 1 when one failed and 2 on a usage error or when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread, set before numpy loads here or in any child interpreter.
# The package multiplies 9x9 matrices: a second OpenBLAS thread only spins,
# doubles the CPU time and ties every product to the load on a second core.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# One BLAS thread, set before numpy loads here or in any child interpreter.
# The package multiplies 9x9 matrices: a second OpenBLAS thread only spins,
# doubles the CPU time and ties every product to the load on a second core.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

sys.path.insert(0, str(HERE))

import trace_table  # noqa: E402
from hostspeed import REFERENCE_S, ScaledClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Checker, probe_round  # noqa: E402

# Every end-to-end metric a run with --trace 0 reports, as (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("gate_p50_ms", "ms", "lower"),
    ("converge_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed, but left out of the JSON result: on a shared 2-core VM its
# run-to-run spread exceeds the largest regression bound a metric may have.
UNGATED = (("gate_p90_ms", "ms", "lower"),)

IMPORT_PROBE = "import rydgate.cli"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Run by each fresh interpreter: the import, then the moment it ended (the
# monotonic clock is shared by all processes) and the median of five
# timings of the reference kernel on the same CPU.
SETUP_PROBE = (
    f"import time, sys, statistics; {IMPORT_PROBE}; done = time.perf_counter(); "
    f"sys.path.insert(0, {str(HERE)!r}); from hostspeed import ScaledClock; clock = ScaledClock(); "
    "print(done, statistics.median(clock.sample() for _ in range(5)))"
)


def measure_setup(repeats: int) -> list[float]:
    """Scaled time from starting a fresh interpreter to the end of its import of the CLI module.

    One unrecorded start comes first, so that bytecode compilation of a
    fresh checkout is not counted.
    """
    samples = []
    for index in range(repeats + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
                              check=True, capture_output=True, text=True)
        imported, kernel = map(float, done.stdout.split())
        if index:
            samples.append((imported - start) * REFERENCE_S / kernel)
    return samples


def measure_imports(repeats: int) -> dict:
    """Median cumulative import times from ``python -X importtime``."""
    wanted = ("numpy", "scipy.linalg", "rydgate")
    samples = defaultdict(list)
    for index in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        )
        if not index:
            continue
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(samples[name]) for name in wanted}


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_steps(steps, checker: Checker, latencies=None, tracer=None, units=None, pass_index=0,
              clock=time.perf_counter) -> float:
    """Run the steps back to back, time them on ``clock``, then check their outputs."""
    done = []
    start = clock()
    for step in steps:
        if tracer is not None:
            tracer.unit += 1
            units.append((tracer.unit, pass_index, step.label))
        t0 = clock()
        try:
            value, error = step.run(), None
        except Exception as exc:  # a raising call is a failed check, not a crash
            value, error = None, exc
        done.append((step, value, error, clock() - t0))
    wall = clock() - start
    for step, value, error, seconds in done:
        if error is not None:
            checker.expect(False, f"{step.label}: raised {type(error).__name__}: {error}")
            continue
        step.check(checker, value)
        if latencies is not None and step.latency:
            latencies[step.latency].append(seconds)
    return wall


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def percentile(samples, fraction: float) -> float:
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def timed_run(size, seconds, steps, probe_steps, checker) -> dict:
    """Every time here is a scaled time (see hostspeed.py)."""
    setup = measure_setup(size["setup_repeats"])
    with ScaledClock() as scaled:
        values = timed_passes(size, seconds, steps, probe_steps, checker, scaled.now)
    values["setup_s"] = statistics.median(setup)
    q1, median, q3 = statistics.quantiles(scaled.kernel_s, n=4)
    print(f"reference kernel {1e3 * median:.4f} ms median, quartiles {1e3 * q1:.4f} {1e3 * q3:.4f}"
          f" ({len(scaled.kernel_s)} timings; raw time ~ scaled time x kernel / reference)")
    return values


def timed_passes(size, seconds, steps, probe_steps, checker, clock) -> dict:
    run_steps(steps, checker, clock=clock)  # warm-up
    run_steps(probe_steps, checker, clock=clock)
    gate_batches, converge, walls = [], [], []

    def timed(batch_steps):
        latencies = defaultdict(list)
        wall = run_steps(batch_steps, checker, latencies, clock=clock)
        if latencies["gate"]:
            gate_batches.append(latencies["gate"])
        converge.extend(latencies["converge"])
        return wall

    deadline = time.perf_counter() + seconds
    last = 0.0  # the last iteration's length: stop before one would overrun
    while len(walls) < size["min_passes"] or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        walls.append(timed(steps))
        timed(probe_steps)
        last = time.perf_counter() - started
    while (sum(map(len, gate_batches)) < size["min_gate_samples"]
           or len(converge) < size["min_converge_samples"]):
        timed(probe_steps)
    gate = [sample for batch in gate_batches for sample in batch]
    print(f"passes {len(walls)}  gate samples {len(gate)} in {len(gate_batches)} batches"
          f"  converge samples {len(converge)}")
    print("pass walls " + " ".join(f"{w:.4f}" for w in walls))
    return {
        "wall_s": statistics.median(walls),
        "gate_p50_ms": 1e3 * statistics.median(gate),
        # The 90th percentile of each batch (at least 10 samples beyond it
        # in a full-size batch of 100 or more), then the median over batches.
        "gate_p90_ms": 1e3 * statistics.median(percentile(batch, 0.90) for batch in gate_batches),
        "converge_s": statistics.median(converge),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload, seed, size, seconds, steps, checker, scratch, env) -> dict:
    """Alternate untraced and traced passes; write the spans; report per layer."""
    import_s = measure_imports(size["setup_repeats"])
    run_steps(steps, checker)  # warm-up
    tracer = Tracer()
    units = []
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    minimum = max(1, size["min_passes"] - 1)
    last = 0.0
    while len(traced) < minimum or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        untraced.append(run_steps(steps, checker))
        with tracer.installed(), tracer.span(trace_table.PASS):
            traced.append(run_steps(steps, checker, tracer=tracer, units=units, pass_index=len(traced)))
        last = time.perf_counter() - started
    header = {
        "workload": workload,
        "seed": seed,
        "env": env,
        "import_s": import_s,
        "io_bytes_per_pass": directory_bytes(scratch),
        "pass_wall_s": traced,
        "untraced_wall_s": untraced,
        "units": units,
    }
    path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    trace_table.write(path, header, tracer.spans)
    header, spans = trace_table.load(path)
    totals = trace_table.analyse(header, spans)
    print(trace_table.format_table(header, totals))
    print(f"spans {len(spans)} written to {path.relative_to(ROOT)}")
    problem = trace_table.check_additivity(totals)
    checker.expect(problem is None, f"trace additivity: {problem}")
    return trace_table.per_layer_metrics(header, totals)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    sys.path.insert(0, str(SRC))
    import rydgate.cli

    if not Path(rydgate.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: rydgate imported from {rydgate.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"  size {args.size}")
    print("environment " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        (scratch / "pass").mkdir()
        (scratch / "probe").mkdir()
        rng = random.Random(args.seed)
        steps = workload.build(rng, size, scratch / "pass")
        probe_steps = probe_round(workload.name, rng, size, scratch / "probe")
        checker = Checker()
        if args.trace:
            metrics = traced_run(workload.name, args.seed, size, args.seconds, steps, checker,
                                 scratch / "pass", env)
        else:
            values = timed_run(size, args.seconds, steps, probe_steps, checker)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
            for name, unit, _ in UNGATED:
                print(f"{name:14s} {values[name]:.6g} {unit}  (not gated)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(checker.failures)
    for message in checker.failures[:20]:
        print(f"CHECK FAILED: {message}")
    if not args.trace:
        for name, metric in metrics.items():
            print(f"{name:14s} {metric['value']:.6g} {metric['unit']}")
        print(f"{'failed_ratio':14s} {failed / max(1, checker.attempted):.6g} 1"
              f"  ({failed} of {checker.attempted} checks)")
    result = {"correct": failed == 0, "attempted": checker.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; a summary table at the end."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print()
    names = [n for n, _, _ in END_TO_END] if not args.trace else []
    print(f"{'workload':14s} " + " ".join(f"{n:>12s}" for n in names + ["failed_ratio"]))
    for workload, result in results.items():
        cells = [f"{result['metrics'][n]['value']:12.5g}" if n in result["metrics"] else f"{'-':>12s}"
                 for n in names]
        ratio = result["failed"] / max(1, result["attempted"])
        print(f"{workload:14s} " + " ".join(cells + [f"{ratio:12.5g}"]))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed part of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' runs the same steps on tiny grids")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rydgate" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'rydgate'}; run from a rydgate checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
