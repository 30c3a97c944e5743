#!/usr/bin/env python3
"""Build centaur_perf from this checkout and run one workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/perf/run.py --regolden

The first form builds bench/perf (a CMake project of its own, always
Release) into .bench_build/perf at the checkout root, runs one
centaur_perf process and prints, as the last line of standard output,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (no traced reps are
run); with --trace 1 they are the per-layer ones from three traced
reps that follow the measured reps. The full centaur_perf result is
kept as .bench_build/perf/results/<workload>-seed<N>-traced<K>.json,
the input compare.py reads; a later run of the same workload, seed
and trace setting replaces it. Build output goes to standard error.

The process exits 1, printing no result, when the build fails, and
exits 1 after printing its result when a rep failed its digest check.

--regolden rebuilds golden.json: the digest of one rep of every
workload at seeds 0..GOLDEN_SEEDS-1. Run it only in a change that
alters the model on purpose (see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")
BINARY = os.path.join(BUILD, "centaur_perf")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ["serve_cpu_gather", "serve_gpu_dense", "cluster_zipf_hedge",
             "paper_sweep"]
TRACED_REPS = 3
GOLDEN_SEEDS = 32


def build():
    """Configure (once) and build centaur_perf; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "centaur_perf",
                  "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def run_perf(workload, seed, budget_s, traced_reps, extra=()):
    """Run one centaur_perf process; (exit code, parsed --json doc).

    The full result stays in .bench_build/perf/results/ for
    compare.py."""
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS,
                       f"{workload}-seed{seed}-traced{traced_reps}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--budget-s", str(budget_s), "--traced-reps", str(traced_reps),
           "--json", out, *extra]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    doc = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
    return proc.returncode, doc


def regolden():
    golden = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for seed in range(GOLDEN_SEEDS):
            code, doc = run_perf(workload, seed, 0, 0,
                                 ["--golden", "-", "--setup-builds", "1"])
            if code != 0 or doc is None:
                sys.exit(f"regolden: {workload} seed {seed} failed")
            golden[workload][str(seed)] = doc["digest"]
    with open(os.path.join(HERE, "golden.json"), "w",
              encoding="utf-8") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regolden", action="store_true")
    args = ap.parse_args()
    if not args.regolden and args.workload is None:
        ap.error("--workload is required")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.regolden:
        regolden()
        return 0

    code, doc = run_perf(args.workload, args.seed, args.seconds,
                         TRACED_REPS if args.trace else 0)
    if doc is None:
        print(f"run.py: centaur_perf exited {code} without a result",
              file=sys.stderr)
        return 1
    correct = code == 0 and doc["failed_reps"] == 0
    metrics = doc["layers"] if args.trace else doc["metrics"]
    print(json.dumps({"correct": correct, "attempted": doc["reps"],
                      "failed": doc["failed_reps"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
