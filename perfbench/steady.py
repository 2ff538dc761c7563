#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly and print each
workload/metric's median, quartiles and spread.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed-base N] [--trace 1]

Each run uses its own seed (seed-base, seed-base+1, ...) and lasts
run_seconds of BENCHMARK.json. The spread of a metric is the distance
between its first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) divided by its median.
A metric is "steady" when its spread is below a third of its bound in
BENCHMARK.json, setup_s included; the suggested bound is three times the
spread, capped at 0.25. The share of failed operations must be the same
in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / abs(statistics.median(values))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [w for w in args.workloads.split(",") if w]

    ok = True
    for w in names:
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            r, wall = run_once(bench["command"], w, seed, seconds, args.trace)
            results.append(r)
            print(f"{w} seed {seed}: {wall:.1f} s wall, "
                  f"{r['failed']}/{r['attempted']} failed", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        print(f"\n{w} ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'suggest':>7}  status")
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) != len(results):
                ok = False
                print(f"  {name:<40} missing from {len(results) - len(values)} runs")
                continue
            if len(values) < 2:
                continue
            q1, med, q3, s = spread(values)
            bound = bounds.get(name)
            status = ""
            if bound is not None:
                if s <= bound / 3:
                    status = "steady"
                elif s <= bound:
                    status = "within bound"
                else:
                    status = "WIDER THAN BOUND"
                    ok = False
            suggest = min(0.25, 3 * s)
            print(f"  {name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{'' if bound is None else bound:>6} {suggest:>7.3f}  {status}")
    print("\nall spreads within bounds" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
