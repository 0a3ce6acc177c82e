#!/usr/bin/env python3
"""Steadiness runner for the repository benchmark.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, for every end-to-end metric, the median, the quartiles and the
spread (interquartile range over the median) next to the metric's bound.
Quartiles are Python's ``statistics.quantiles(values, n=4)``.

Run from the repository root:

    python3 perfbench/steady.py                      # every workload, seeds 1..10
    python3 perfbench/steady.py --workload grid --seeds 5 --first-seed 11
    python3 perfbench/steady.py --trace 1 --seeds 1  # one traced run each

A run counts only when it exits 0 and reports ``"correct": true``; any
other run is listed and makes the script exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, wall, done


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bad = []
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            code, result, wall, done = run(bench["command"], workload, seed,
                                           args.seconds, args.trace)
            if code != 0 or not result or not result.get("correct"):
                bad.append((workload, seed, code))
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                continue
            for name, got in result["metrics"].items():
                if name in values:
                    values[name].append(got["value"])
            shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                             for m in metrics[:8] if m["name"] in result["metrics"])
            print(f"{workload} seed {seed}: {wall:.1f}s wall, {shown}", flush=True)
        print(f"\n{workload}: {args.seeds} runs")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"  {m['name']:<40} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6} {flag}")
        print(flush=True)
    if bad:
        print(f"{len(bad)} failed run(s): {bad}")
        sys.exit(1)


if __name__ == "__main__":
    main()
