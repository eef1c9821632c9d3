#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload, then
prints, per workload and metric, the median and the interquartile range
(statistics.quantiles, n=4) as a share of the median, beside the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads a,b] [--seed-base 100]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            t = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
            result = json.loads(last)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stdout[-2000:]}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.time() - t:.0f}s): "
                  + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  file=sys.stderr, flush=True)
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            rows.append((workload, name, statistics.median(v), (q3 - q1) / statistics.median(v),
                         bounds[name], len(v)))

    print("| workload | metric | median | IQR / median | bound | runs |")
    print("|---|---|---|---|---|---|")
    for w, n, med, spread, bound, runs in rows:
        print(f"| {w} | {n} | {med:.6g} | {spread:.4f} | {bound} | {runs} |")


if __name__ == "__main__":
    main()
