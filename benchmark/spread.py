#!/usr/bin/env python3
"""Run the benchmark several times per workload and report the spread.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1000] [--workload NAME ...]

Run from the repository root. Each run of a workload gets its own seed
(first-seed, first-seed + 1, ...). For every end-to-end metric it prints
the median of the runs and the distance between the first and third
quartile as a share of that median, next to a third of the metric's
bound from BENCHMARK.json: a steady benchmark keeps each spread but
setup_s's below that third. Exits non-zero if a run fails or reports
incorrect results.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            result = run_once(w, args.first_seed + i, bench["run_seconds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            ok = name == "setup_s" or spread < limit
            steady &= ok
            print(f"{w:12s} {name:12s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"limit {limit:6.4f}  {'ok' if ok else 'WIDE'}  "
                  f"runs {' '.join(f'{v:.4g}' for v in vals)}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
