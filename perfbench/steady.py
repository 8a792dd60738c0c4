#!/usr/bin/env python3
"""Steadiness check: runs one workload N times on the current checkout, each
with another seed, and prints every metric's median, quartiles and spread
(Q3 - Q1 as a share of the median) next to its bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload thresholds [--runs 10] [--trace 0]
        [--seed-base 1] [--seconds <run_seconds>]

A metric is steady when its spread stays below a third of its bound; the
verdict column says so. setup_s is reported but, having the largest bound, is
judged on its median across repeated checks rather than its spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        line = json.loads(proc.stdout.splitlines()[-1])
        if not line["correct"] or line["failed"]:
            print("seed %d: correct=%s failed=%d" % (seed, line["correct"], line["failed"]))
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in line["metrics"].items())), flush=True)

    print("\n%-26s %12s %12s %12s %8s %7s  %s" % ("metric", "median", "q1", "q3", "spread",
                                                 "bound", "verdict"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(median-judged)"
        else:
            verdict = "steady" if spread < bound / 3 else "UNSTEADY"
        print("%-26s %12.5g %12.5g %12.5g %8.4f %7s  %s" % (
            name, med, q1, q3, spread, "-" if bound is None else "%.3g" % bound, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
