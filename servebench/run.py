#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 servebench/run.py --workload rel_cold --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 10

The build goes to $CARGO_TARGET_DIR/servebench (default .bench_build/) under
the repository root. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. `--workload all` runs the
four workloads one after another and prints each one's end-to-end summary.
The exit code is non-zero when the build fails, the run fails, or an answer
did not check out.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["rel_cold", "rel_hot_writes", "rel_sharded", "xml"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    return os.path.join(target, "servebench")


def build(root, out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "servebench"),
                      "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "servebench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return None
    binary = os.path.join(out_dir, "servebench")
    return binary if os.path.exists(binary) else None


def run_one(root, binary, out_dir, workload, seed, seconds, trace):
    """Runs one workload; relays its output and returns its exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%s.tsv" % (workload, seed))]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s timed out\n" % workload)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = repo_root()
    out_dir = build_dir(root)
    try:
        binary = build(root, out_dir)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 1
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        seconds = ("%g" % args.seconds)
        code = run_one(root, binary, out_dir, w, args.seed, seconds, args.trace)
        if code != 0:
            sys.stderr.write("run.py: %s exited with %d\n" % (w, code))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
