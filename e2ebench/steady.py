#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs one workload k times untraced, each with another seed, and prints for
every end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) against the
metric's bound in BENCHMARK.json. It also checks that the failed share of
operations is the same in every run, then runs the workload traced twice on
one seed and confirms every per-layer count is identical across the two.

Run from the repository root:

    python3 e2ebench/steady.py --workload serve-churn --runs 10 --first-seed 1
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

# Per-layer units that are counts or sizes rather than times: they must
# repeat exactly for one seed.
EXACT_UNITS = {"count", "MiB", "KiB", "0/1"}


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"run failed: {' '.join(args)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    steal = re.search(r"host steal (\S+)", done.stdout)
    result = json.loads(lines[-1])
    result["steal"] = steal.group(1) if steal else "unknown"
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = []
    for i in range(opts.runs):
        seed = opts.first_seed + i
        r = run_once(command, opts.workload, seed, seconds, 0)
        results.append(r)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: steal {r['steal']} attempted {r['attempted']} "
              f"failed {r['failed']} {values}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    worst = 0.0
    print(f"\n{opts.workload}: {opts.runs} runs, failed share {sorted(shares)}")
    print(f"{'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, spec in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = spec["bound"]
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        worst = max(worst, spread / bound)
        print(f"{name:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}  {verdict}")
    ok = len(shares) == 1 and worst <= 1.0

    seed = opts.first_seed
    traced = [run_once(command, opts.workload, seed, seconds, 1) for _ in range(2)]
    a, b = (t["metrics"] for t in traced)
    differ = [n for n, m in a.items()
              if m["unit"] in EXACT_UNITS and m["value"] != b[n]["value"]]
    print(f"\ntraced seed {seed}: {len(a)} per-layer metrics; "
          f"counts identical across two runs: {not differ} {differ or ''}")
    ok = ok and not differ

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
