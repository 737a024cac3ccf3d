"""Repeat benchmark runs over seeds and summarise their steadiness.

    python3 perfbench/baseline.py --runs 10 --write perfbench/baseline.json

Runs ``run.py`` once per seed (1..runs) on each workload, each run in its
own process, then one traced run per workload. For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    env_lines = [line for line in lines if line.startswith("environment ")]
    result["environment"] = json.loads(env_lines[0].split(" ", 1)[1]) if env_lines else {}
    for line in lines:
        kernel = re.match(r"reference kernel (\S+) ms median", line)
        if kernel:
            result["kernel_ms"] = float(kernel.group(1))
        ungated = re.match(r"(\S+)\s+(\S+) (\S+)\s+\(not gated\)$", line)
        if ungated:
            name, value, unit = ungated.groups()
            result["ungated"] = {**result.get("ungated", {}), name: {"value": float(value), "unit": unit}}
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--write", help="write the summary as JSON to this path")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "elapsed_s": [r["elapsed_s"] for r in results],
                 "kernel_ms": [r.get("kernel_ms") for r in results], "metrics": {}}
        print(f"{workload}: {entry['failed']} of {entry['attempted']} checks failed;"
              f" {max(entry['elapsed_s']):.1f} s for the longest run")
        for name, bound in bounds.items():
            summary = summarise([r["metrics"][name]["value"] for r in results])
            summary["unit"] = results[0]["metrics"][name]["unit"]
            summary["bound"] = bound
            entry["metrics"][name] = summary
            ratio = summary["spread"] / bound
            if name != "setup_s":
                worst = max(worst, ratio)
            print(f"  {name:12s} median {summary['median']:10.5g} {summary['unit']:3s}"
                  f"  q1 {summary['q1']:10.5g}  q3 {summary['q3']:10.5g}"
                  f"  spread {summary['spread']:6.3f}  bound {bound:5.2f}  spread/bound {ratio:5.2f}")
        for name in results[0].get("ungated", {}):
            summary = summarise([r["ungated"][name]["value"] for r in results])
            summary["unit"] = results[0]["ungated"][name]["unit"]
            entry["ungated"] = {**entry.get("ungated", {}), name: summary}
            print(f"  {name:12s} median {summary['median']:10.5g} {summary['unit']:3s}"
                  f"  q1 {summary['q1']:10.5g}  q3 {summary['q3']:10.5g}"
                  f"  spread {summary['spread']:6.3f}  (not gated)")
        if not args.no_trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            entry["traced"] = {
                "seed": args.first_seed,
                "elapsed_s": traced["elapsed_s"],
                "environment": traced["environment"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            overhead = traced["metrics"]["trace.overhead_s"]["value"]
            print(f"  traced run: overhead {overhead:.4f} s per pass")
        entry["environment"] = results[0]["environment"]
        report["workloads"][workload] = entry
        sys.stdout.flush()
    print(f"largest spread/bound outside setup_s: {worst:.2f}")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
