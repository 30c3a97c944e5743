#!/usr/bin/env python3
"""Compare centaur_perf results of a parent commit and a change.

    python3 bench/perf/compare.py --parent P1.json P2.json ... \\
                                  --change C1.json C2.json ...

Each file is one `centaur_perf --json` result. Run the two builds in
alternating order (parent, change, parent, change, ...) with the same
budget, one distinct seed per pair: the untraced parent and change
results of a workload at the same seed form a pair, and a side with
two untraced results for one seed is an error.

For every (workload, end-to-end metric) the report gives each side's
median and quartiles, the fraction of pairs the change wins (ties
count for neither) and a verdict against BENCHMARK.json:

  unresolved     fewer than 10 pairs; or either side's interquartile
                 range, as a share of its median, is wider than the
                 bound and not every change run beats every parent run;
  improved       the change wins at least 9/10 of the pairs, the
                 medians differ by more than the parent's
                 interquartile range, and the change failed no more
                 reps than the parent;
  regressed      the change's median is worse than the parent's by
                 more than the metric's bound;
  within bound   otherwise.

Traced results give the per-layer medians and deltas. The exit status
is 1 when any metric regressed or the change failed more reps than
the parent, 0 otherwise.

    python3 bench/perf/compare.py --trajectory LABEL FILES...

instead appends one CSV row per (workload, metric) of FILES, labelled
LABEL, to trajectory.csv next to this script.

Standard library only.
"""

import argparse
import csv
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
TRAJECTORY = os.path.join(HERE, "trajectory.csv")
TRAJECTORY_FIELDS = ["label", "workload", "kind", "metric", "unit",
                     "median", "q1", "q3", "runs", "seeds", "budget_s",
                     "nproc", "compiler", "build_type"]
MIN_PAIRS = 10


def load(paths):
    """workload -> list of result documents, in the order given."""
    by_workload = {}
    for p in paths:
        with open(p, encoding="utf-8") as f:
            doc = json.load(f)
        by_workload.setdefault(doc["workload"], []).append(doc)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def values_of(docs, section, name):
    return [d[section][name]["value"] for d in docs
            if name in d.get(section, {})]


def by_seed(docs, traced):
    """seed -> document, over the untraced or the traced results."""
    out = {}
    for d in docs:
        if (d["traced_reps"] > 0) != traced:
            continue
        if d["seed"] in out:
            sys.exit(f"compare.py: two {'traced' if traced else 'untraced'}"
                     f" results of {d['workload']} at seed {d['seed']};"
                     " give each pair its own seed")
        out[d["seed"]] = d
    return out


def verdict(parent, change, bound, higher_better, more_failures):
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    win_frac = wins / len(pairs)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0,
                 (cq3 - cq1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) < MIN_PAIRS:
        v = "unresolved"
    elif (win_frac >= 0.9 and sign * (cm - pm) > (pq3 - pq1)
          and not more_failures):
        v = "improved"
    elif worse_by > bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "within bound"
    return pm, (pq1, pq3), cm, (cq1, cq3), win_frac, len(pairs), v


def compare(spec, parent_paths, change_paths):
    parent, change = load(parent_paths), load(change_paths)
    worst = 0
    print(f"{'workload':20} {'metric':14} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'wins':>9}  verdict")
    for w in sorted(set(parent) & set(change)):
        p_docs, c_docs = by_seed(parent[w], False), by_seed(change[w], False)
        seeds = sorted(set(p_docs) & set(c_docs))
        if not seeds:
            continue
        p_failed = sum(p_docs[s]["failed_reps"] for s in seeds)
        c_failed = sum(c_docs[s]["failed_reps"] for s in seeds)
        if c_failed > p_failed:
            print(f"{w:20} the change failed {c_failed} reps, "
                  f"the parent {p_failed}")
            worst = 1
        for m in spec["end_to_end"]:
            p = values_of([p_docs[s] for s in seeds], "metrics", m["name"])
            c = values_of([c_docs[s] for s in seeds], "metrics", m["name"])
            if len(p) != len(seeds) or len(c) != len(seeds):
                continue
            pm, pq, cm, cq, wf, n, v = verdict(
                p, c, m["bound"], m["better"] == "higher",
                c_failed > p_failed)
            print(f"{w:20} {m['name']:14} "
                  f"{pm:>12.5g} [{pq[0]:.5g},{pq[1]:.5g}] "
                  f"{cm:>12.5g} [{cq[0]:.5g},{cq[1]:.5g}] "
                  f"{wf:>5.0%} of {n}  {v}")
            worst = max(worst, v == "regressed")
    print()
    print(f"{'workload':20} {'per-layer metric':28} {'parent':>12} "
          f"{'change':>12} {'delta':>8}")
    for w in sorted(set(parent) & set(change)):
        p_docs = list(by_seed(parent[w], True).values())
        c_docs = list(by_seed(change[w], True).values())
        for m in spec["per_layer"]:
            p = values_of(p_docs, "layers", m["name"])
            c = values_of(c_docs, "layers", m["name"])
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
            print(f"{w:20} {m['name']:28} {pm:>12.5g} {cm:>12.5g} "
                  f"{delta:>8}")
    return worst


def trajectory(spec, label, paths):
    """End-to-end rows come from untraced runs and per-layer rows from
    traced ones, as run.py --trace 0 and --trace 1 report them."""
    rows = []
    for w, all_docs in sorted(load(paths).items()):
        for kind, section, metrics in (("end_to_end", "metrics",
                                        spec["end_to_end"]),
                                       ("per_layer", "layers",
                                        spec["per_layer"])):
            docs = [d for d in all_docs
                    if (d["traced_reps"] > 0) == (kind == "per_layer")]
            if not docs:
                continue
            host = docs[0]["host"]
            seeds = sorted({d["seed"] for d in docs})
            for m in metrics:
                vals = values_of(docs, section, m["name"])
                if not vals:
                    continue
                q1, q3 = quartiles(vals)
                rows.append({
                    "label": label, "workload": w, "kind": kind,
                    "metric": m["name"], "unit": m["unit"],
                    "median": f"{statistics.median(vals):.6g}",
                    "q1": f"{q1:.6g}", "q3": f"{q3:.6g}",
                    "runs": len(vals),
                    "seeds": f"{seeds[0]}-{seeds[-1]}",
                    "budget_s": docs[0]["budget_s"],
                    "nproc": host["nproc"], "compiler": host["compiler"],
                    "build_type": host["build_type"]})
    new_file = not os.path.exists(TRAJECTORY)
    with open(TRAJECTORY, "a", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=TRAJECTORY_FIELDS)
        if new_file:
            writer.writeheader()
        writer.writerows(rows)
    print(f"appended {len(rows)} rows to {TRAJECTORY}")


def main():
    ap = argparse.ArgumentParser(
        description="Compare centaur_perf results (see module doc).")
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--trajectory", nargs="+", metavar=("LABEL", "FILE"))
    args = ap.parse_args()
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    if args.trajectory:
        if len(args.trajectory) < 2:
            ap.error("--trajectory needs a label and at least one file")
        trajectory(spec, args.trajectory[0], args.trajectory[1:])
        return 0
    if not args.parent or not args.change:
        ap.error("--parent and --change files are required")
    return compare(spec, args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
