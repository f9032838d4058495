#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

Runs the command of BENCHMARK.json N times per workload in each of two
alternating groups (A B A B ...), every run with another --seed, and prints
for each workload x end-to-end metric both groups' medians and quartiles,
the spread (distance between first and third quartile as a share of the
median; the wider of the two groups) and how far the second median is worse than the first. Exits
non-zero if a spread (other than setup_s's) or a shift exceeds the metric's
bound, or a run fails or reports an incorrect result.

    python3 adjbench/aa.py [N] [--workload NAME] [--trace]

Run it from the repository root. N defaults to 5; the driver's own check is
two groups of 10.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} reported {result['failed']} failed ops, correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("n", nargs="?", type=int, default=5, help="runs per group and workload")
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true", help="check the per-layer run instead")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    bad = []
    for workload in workloads:
        groups = ({}, {})
        walls = []
        for i in range(2 * args.n):
            values, wall = run_once(bench, workload, args.first_seed + i, args.trace)
            walls.append(wall)
            missing = {m["name"] for m in declared} ^ set(values)
            if missing:
                sys.exit(f"{workload}: printed and declared metrics differ: {sorted(missing)}")
            for name, value in values.items():
                groups[i % 2].setdefault(name, []).append(value)
        print(f"\n{workload}: {2 * args.n} runs, {statistics.median(walls):.1f} s each (max {max(walls):.1f} s)")
        print(f"  {'metric':<36} {'A q1 / median / q3':<34} {'B q1 / median / q3':<34} spread  shift  bound")
        for m in declared:
            name, bound = m["name"], m.get("bound")
            a, b = groups[0][name], groups[1][name]
            qa, qb = quartiles(a), quartiles(b)
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
            worse = (qb[1] - qa[1]) if m["better"] == "lower" else (qa[1] - qb[1])
            shift = worse / qa[1] if qa[1] else 0.0
            flag = ""
            if bound is not None:
                if name != "setup_s" and spread > bound:
                    flag += " SPREAD"
                if abs(shift) > bound:
                    flag += " SHIFT"
                if flag:
                    bad.append(f"{workload} {name}:{flag}")
            fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
            bound_text = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:<36} {fmt(qa):<34} {fmt(qb):<34} {spread:6.3f} {shift:+6.3f}  {bound_text}{flag}")
    if bad:
        sys.exit("outside the bound: " + "; ".join(bad))


if __name__ == "__main__":
    main()
