#!/usr/bin/env python3
"""Builds the testbed benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload closure_tree --seed 1 --seconds 30 --trace 0

The build tree goes to $CARGO_TARGET_DIR when set, else .bench_build/, and
run files (spans.json, the served workload's WAL) to <build tree>/runs/.
Build output goes to stderr; the benchmark's report, ending in one JSON
line, to stdout.
Arguments after the four above (for instance --tiny) are passed through.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("closure_tree", "rulebase_compile", "served_readwrite")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_describe():
    """`git describe` of the tree being measured, when it is a git checkout
    of its own (a parent directory's repository does not count)."""
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30, check=True)
    except (subprocess.SubprocessError, OSError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(needed + " not found: run from the repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%s" % (
        args.workload, args.seed, args.trace))
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", out_dir, "--git", git_describe()] + extra
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
