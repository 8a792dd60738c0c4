#!/usr/bin/env python3
"""Benchmark entry point: builds flashgen_perf from this checkout and runs one
workload.

    python3 perfbench/run.py --workload generate|thresholds|train \
        --seed N --seconds S --trace 0|1 [--out DIR]
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced pass with --trace 1. The full
result (every metric, the checks, provenance, the GEMM shape table) is in
DIR/result.json; DIR defaults to .bench_build/runs/<workload>-<seed>-<trace>-<pid>
under the checkout. Build output and the program's log go to standard error.

--smoke runs every workload for a few seconds, traced and untraced, and
fails unless every metric named in BENCHMARK.json is present and finite and
every correctness check passes.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "flashgen_perf")
WORKLOADS = ("generate", "thresholds", "train")
# A run measures two passes of --seconds plus set-up and checks; anything
# slower than this is hung.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: flashgen sources not found next to perfbench/ (expected %s/src)" % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "flashgen_perf", "-j", jobs],
                   check=True, stdout=sys.stderr)


def provenance():
    """The checkout's commit when it is a git repository, and always a digest
    of the sources the binary was built from."""
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run(workload, seed, seconds, trace, out_dir):
    """Runs one workload; returns the full result dict, or None on failure."""
    os.makedirs(out_dir, exist_ok=True)
    # One malloc arena: with a per-thread arena for each of the many executor
    # threads, peak RSS depends on which thread first touched which buffer.
    env = dict(os.environ, FLASHGEN_THREADS="1", MALLOC_ARENA_MAX="1")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0:
        log("run.py: flashgen_perf exited with %d" % proc.returncode)
        return None
    result = json.loads(lines[-1])
    result["provenance"].update(provenance())
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    return result


def summary(result, trace):
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["per_layer"] if trace else result["end_to_end"],
    }


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = os.path.join(ROOT, ".bench_build", "smoke", "%s-%d" % (workload, trace))
            result = run(workload, 1, 6, trace, out)
            if result is None:
                problems.append("%s trace=%d: run failed" % (workload, trace))
                continue
            line = summary(result, trace)
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            for name in names:
                value = line["metrics"].get(name, {}).get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s trace=%d: metric %s missing or not finite"
                                    % (workload, trace, name))
            if not line["correct"]:
                problems.append("%s trace=%d: checks failed: %s"
                                % (workload, trace, result["checks_failed"]))
            log("smoke: %s trace=%d ok=%s attempted=%d failed=%d"
                % (workload, trace, line["correct"], line["attempted"], line["failed"]))
    for p in problems:
        log("smoke: FAIL " + p)
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    out = args.out or os.path.join(ROOT, ".bench_build", "runs", "%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    result = run(args.workload, args.seed, args.seconds, args.trace, out)
    if result is None:
        return 1
    print(json.dumps(summary(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
