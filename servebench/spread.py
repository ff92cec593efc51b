#!/usr/bin/env python3
"""Measures the seed-to-seed spread of the end-to-end metrics.

Run from the repository root:

    python3 servebench/spread.py --workload rel_cold --seeds 1-10 --seconds 10

For every end-to-end metric in BENCHMARK.json it prints the median over the
seeds and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound. A spread above a third of the bound is flagged. Each run's line
shows the share of CPU time stolen by the hypervisor while it ran (a
stalled host slows every metric at once) and the run's wall time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(root, "servebench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", "%g" % seconds, "--trace", "0"]
        before = cpu_ticks()
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - t0
        after = cpu_ticks()
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            return 1
        result = json.loads(lines[-1])
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append("%s=%.4g" % (name, m["value"]))
        steal = ""
        if before and after and after[1] > before[1]:
            # CPU time the hypervisor gave to other guests: a host stall.
            steal = " steal=%.1f%%" % (
                100.0 * (after[0] - before[0]) / (after[1] - before[1]))
        print("seed %d: correct=%s %s%s wall=%.1fs" %
              (seed, result["correct"], " ".join(row), steal, wall),
              flush=True)
    status = 0
    for metric in bench["end_to_end"]:
        v = values.get(metric["name"], [])
        if len(v) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        if spread > metric["bound"]:
            status = 1
        print("%-12s median %12.5g  spread %6.3f  bound %.2f%s" %
              (metric["name"], q2, spread, metric["bound"], flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
