#!/usr/bin/env python3
"""Steadiness check for the maintenance benchmark.

Runs every workload named in BENCHMARK.json in two sets of repeated runs,
each run with its own seed, and prints for every end-to-end metric the
spread of each set (distance between the first and third quartile as a
share of the median) and how far the second set's median moved from the
first's, against the metric's bound. It also checks that the share of
failed operations is identical in every run.

    python3 maintbench/steady.py [--runs 10] [--workloads a,b] [--seconds N]
                                 [--first-seed 1] [--trace] [--out FILE]

Run it from anywhere; it runs the benchmark command from the repository
root. With --trace it runs the traced workload instead and prints the
median of every per-layer metric. --out appends every run's result as one
JSON line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_shift(first, second, better):
    """How much worse the second median is than the first, as a share."""
    m1, m2 = statistics.median(first), statistics.median(second)
    change = (m2 - m1) / m1
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics")
    ap.add_argument("--out", help="append each result as a JSON line here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    sets = 1 if args.trace else 2
    ok = True

    for workload in workloads:
        results = []
        for s in range(sets):
            results.append([])
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                r = run_once(bench, workload, seed, seconds, args.trace)
                results[s].append(r)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"workload": workload, "seed": seed,
                                            "trace": args.trace, "result": r}) + "\n")
                print(f"  {workload} seed {seed}: correct={r['correct']} "
                      f"failed {r['failed']}/{r['attempted']}", file=sys.stderr)
        runs = [r for rs in results for r in rs]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{workload}: correct in every run: {correct}; "
              f"failed shares: {sorted(str(x) for x in shares)}")
        if args.trace:
            print(f"  {'metric':42} {'unit':12} {'median':>14}")
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                print(f"  {m['name']:42} {m['unit']:12} {statistics.median(vals):14.6g}")
            continue
        print(f"  {'metric':22} {'bound':>6} {'spread1':>8} {'spread2':>8} "
              f"{'all':>8} {'worse':>8} {'median':>12}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets_vals = [[r["metrics"][name]["value"] for r in rs] for rs in results]
            s1, s2 = spread(sets_vals[0]), spread(sets_vals[1])
            shift = worse_shift(sets_vals[0], sets_vals[1], m["better"])
            spreads = [] if name == "setup_s" else [s1, s2]
            if any(s > bound for s in spreads) or shift > bound:
                verdict = "FAIL"
                ok = False
            elif any(s > bound / 3 for s in spreads):
                verdict = "spread above a third of the bound"
            else:
                verdict = "ok"
            every = sets_vals[0] + sets_vals[1]
            print(f"  {name:22} {bound:6.3f} {s1:8.4f} {s2:8.4f} {spread(every):8.4f} "
                  f"{shift:8.4f} {statistics.median(every):12.6g}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
