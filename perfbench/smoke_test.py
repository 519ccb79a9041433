#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py --tiny with
--trace 0 and --trace 1 and asserts that:
  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, all answers correct (error_rate 0);
  - every end-to-end (trace 0) or per-layer (trace 1) metric named in
    BENCHMARK.json is printed with its unit, and nothing else is;
  - the traced run's spans.json parses, every self time is non-negative,
    each request's self times sum to at most its wall time, and all self
    times together to at most the traced window's wall time per client.
Last, it checks that run.py fails, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

CLIENTS = {"served_readwrite": 2}  # concurrent clients per workload
SLACK_US = 0.01  # span times are written with three decimals


def run(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def check_result(workload, trace, specs):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    assert any(l.split()[:2] == ["error_rate", "0.000000"] for l in lines)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, (
        set(metrics) ^ {m["name"] for m in specs})
    for spec in specs:
        m = metrics[spec["name"]]
        assert m["unit"] == spec["unit"], (spec, m)
        assert isinstance(m["value"], (int, float)), m
        printed = [l for l in lines if l.split()[:1] == [spec["name"]]]
        assert printed and printed[0].split()[-1] == spec["unit"], printed
    return metrics


def check_spans(workload):
    path = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "runs", "%s-seed1-trace1" % workload, "spans.json")
    with open(path) as f:
        spans = json.load(f)["spans"]
    assert spans, "no spans recorded"
    by_id = {s["id"]: s for s in spans}
    per_request = {}
    for s in spans:
        assert s["self_us"] >= 0, s
        assert s["end_us"] >= s["start_us"], s
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["request"] == s["request"], s
        per_request.setdefault(s["request"], []).append(s)
    for request, group in per_request.items():
        roots = [s for s in group if s["parent"] < 0]
        assert len(roots) == 1, group
        wall = roots[0]["end_us"] - roots[0]["start_us"]
        assert sum(s["self_us"] for s in group) <= wall + SLACK_US * len(group)
    window = max(s["end_us"] for s in spans) - min(s["start_us"] for s in spans)
    clients = CLIENTS.get(workload, 1)
    assert (sum(s["self_us"] for s in spans)
            <= window * clients + SLACK_US * len(spans))


def check_fails_without_sources():
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("closure_tree", 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, "run.py succeeded without the sources"
    assert "{" not in done.stdout, done.stdout


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        check_result(workload, 0, bench["end_to_end"])
        check_result(workload, 1, bench["per_layer"])
        check_spans(workload)
        print("ok  %s" % workload)
    check_fails_without_sources()
    print("ok  fails without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
