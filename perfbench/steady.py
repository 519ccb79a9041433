#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports each metric's spread.

Run from the repository root:

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --workload served_readwrite --runs 5

Each run uses its own seed (seed-base, seed-base + 1, ...). For every
metric the script prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and,
for end-to-end metrics, the spread as a share of the metric's bound in
BENCHMARK.json. Spreads above a third of the bound are flagged. With
--save FILE the raw values are written as JSON; --compare FILE reports how
far this set's medians moved from a saved set's, against the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + extra
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("run failed: %s" % " ".join(command))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("wrong answers in %s seed %d: %s" %
                         (workload, seed, lines[-1]))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args, extra = parser.parse_known_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)
    saved = {}
    status = 0
    for workload in args.workload or names:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds, args.trace, extra)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        saved[workload] = values
        print("%s (%d runs)" % (workload, args.runs))
        print("  %-32s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "/bound"))
        for name, vals in values.items():
            median, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            share = ""
            flag = ""
            if bound:
                share = "%.2f" % (rel / bound)
                if rel > bound / 3 and name != "setup_s":
                    flag = "  WIDE"
                    status = 1
            print("  %-32s %14.3f %14.3f %14.3f %7.2f%% %8s%s" %
                  (name, median, q1, q3, 100 * rel, share, flag))
            old = previous.get(workload, {}).get(name)
            if old and bound:
                before = statistics.median(old)
                worse = (median - before) / before
                if better[name] == "higher":
                    worse = -worse
                print("  %-32s median moved %+.2f%% (worse by %.2f of bound)"
                      % ("", 100 * (median - before) / before, worse / bound))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
