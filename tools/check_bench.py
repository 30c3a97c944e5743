#!/usr/bin/env python3
"""CI gate for centaur_bench JSON reports.

Validates a BENCH_results.json produced by

    centaur_bench --suite all --json BENCH_results.json

Checks performed:
  1. schema: top-level and per-suite schema_version (major.minor)
     matches, every expected suite is present, and every measurement
     record (any object whose "kind" ends in "_entry") carries the
     full scenario triple: a non-empty backend "spec" string (v1.1)
     plus non-empty "model" and "workload" stamps (v1.2). v1.3 adds
     the contention stamps: every per-worker serving record carries
     fabric_wait_us and every serving stats object carries a fabric
     array (per-resource utilization/wait on contended runs). v1.5
     adds the cache-tier stamps: every per-worker serving record
     carries cache_hits/cache_misses/cache_saved_us and every
     serving stats object carries a cache object (all-zero when no
     cache tier is configured).
  2. sanity: no null metric anywhere (the C++ writer serializes
     NaN/Inf as null), no non-finite number, and every latency /
     throughput / bandwidth metric is strictly positive.
  3. paper-ordering invariants: Centaur end-to-end throughput beats
     CPU-only at every preset (geomean over the batch sweep, and
     strictly at batch 1), gather-bandwidth and energy-efficiency
     improvements hold in the mean, serving throughput scales
     monotonically with workers under overload, the design fits
     the GX1150, in the spec_matrix cross product every
     FPGA-resident MLP stage (*+fpga spec) beats the CPU MLP stage
     at batch >= 64, and in the scenario_matrix cross product
     zipf-skewed traffic is never slower than uniform on a
     cache-backed spec at the same batch (>= 64), and in the
     contention_matrix mean service latency is monotonically
     non-decreasing in co-located workers on every spec while the
     in-package cpu+fpga pairing degrades strictly less than the
     PCIe-attached cpu+gpu pairing, and in the cluster_matrix every
     multi-node cluster's mean service time is no better than the
     single-node anchor replaying the same request stream
     (remote_not_faster: remote gathers only add latency) while
     under zipf skew with range sharding shard-affinity routing's
     p99 never loses to random routing (affinity_not_slower), with
     every cluster record carrying live per-node fabric arrays and
     per-shard gather hit counts (v1.4), and in the cache_matrix the
     hot-row cache hit rate is monotonically non-decreasing in zipf
     skew at every fixed capacity, a cached run's serving p50 never
     loses to the cache-less anchor on the same request stream, a
     /cache:0 spec is identical to the bare spec, and a hit-rate
     knee is found for every (model, workload) cell (v1.5), and in
     the slo_matrix (v1.6) the control plane earns its keep on
     streams the open-loop anchor replays identically: the adaptive
     batcher meets a per-class p99 target the fixed window misses in
     at least one cell and never turns a met target into a miss
     (slo_checks), hedged duplicates cut the p999 tail in at least
     one cell and never raise joules-per-query by more than 10%
     (hedge_checks), and the autoscaler's active-count trajectory
     stays inside [1, pool] in every scaled cell (scale_checks).
     v1.6 also stamps every suite envelope with its simulation cost:
     sim_events (deterministic, jobs-independent) and sim_wall_us
     (host time, NEUTRAL). v1.7 adds the sim_perf suite: each cell
     record carries the events its engine executed (sim_events),
     which with --baseline must equal the baseline's exactly, while
     its wall-derived rates (requests_per_sec, sim_events_per_sec)
     diff against the baseline only loosely - they move with the
     host, so only an order-of-magnitude collapse fails the gate.

With --baseline OLD.json the run is also diffed against a previous
report: the largest relative deltas are printed, and with
--threshold F the gate fails when a latency metric regresses (or a
speedup/throughput metric drops) by more than F (e.g. 0.10 = 10%).

Exit status: 0 pass, 1 check failure, 2 usage/IO error.
"""

import argparse
import json
import math
import sys

SCHEMA_VERSION = 1
SCHEMA_MINOR = 7

EXPECTED_SUITES = [
    "table1",
    "table2",
    "table3",
    "table4",
    "fig5",
    "fig6",
    "fig7",
    "fig13",
    "fig14",
    "fig15",
    "ablation_linkbw",
    "ablation_cache_bypass",
    "ablation_pe_scaling",
    "serving_scaling",
    "spec_matrix",
    "scenario_matrix",
    "contention_matrix",
    "cluster_matrix",
    "cache_matrix",
    "slo_matrix",
    "sim_perf",
]

# Backend specs every full spec_matrix run must cover.
EXPECTED_SPECS = [
    "cpu",
    "cpu+gpu",
    "cpu+fpga",
    "gpu",
    "gpu+fpga",
    "fpga+fpga",
]

# Minimum scenario_matrix coverage: >= 3 system specs x >= 3 models
# x >= 2 workload distributions.
SCENARIO_MIN_SPECS = 3
SCENARIO_MIN_MODELS = 3
SCENARIO_MIN_WORKLOADS = 2

# Metrics that must be strictly positive wherever they appear.
POSITIVE_KEYS = {
    "latency_us",
    "cpu_latency_us",
    "centaur_latency_us",
    "cpu_gpu_latency_us",
    "cpu_only_latency_us",
    "mean_latency_us",
    "mean_service_us",
    "p50_us",
    "p95_us",
    "p99_us",
    "p999_us",
    "max_latency_us",
    "throughput_rps",
    "throughput_inf_per_sec",
    "effective_emb_gbps",
    "speedup",
    "energy_joules",
    "joules_per_query",
    "power_watts",
    "requests_per_sec",
    "sim_events_per_sec",
}

# Baseline-diff classification by exact key name (substring matching
# would misfire on e.g. per-worker busy_us, which legitimately rises
# when a change improves coalescing). Keys in neither set are
# reported but never gate the run.
HIGHER_IS_WORSE = {
    "latency_us",
    "cpu_latency_us",
    "centaur_latency_us",
    "cpu_gpu_latency_us",
    "cpu_only_latency_us",
    "mean_latency_us",
    "mean_service_us",
    "mean_queue_us",
    "p50_us",
    "p95_us",
    "p99_us",
    "p999_us",
    "max_latency_us",
    "normalized_latency",
    "energy_joules",
    "joules_per_query",
    "drop_rate",
    "fabric_wait_us",
    "package_degradation",
    "zipf_us",
    "uniform_us",
    "service_1w_us",
    "service_max_us",
    "mlp_us",
    "cpu_mlp_us",
}
LOWER_IS_WORSE = {
    "speedup",
    "speedup_vs_cpu",
    "min_speedup",
    "max_speedup",
    "geomean_speedup",
    "throughput_rps",
    "throughput_inf_per_sec",
    "throughput_1w",
    "throughput_2w",
    "throughput_4w",
    "attainment",
    "effective_emb_gbps",
    "improvement",
    "mean_improvement_arith",
    "mean_improvement_geomean",
    "efficiency_inf_per_joule",
    "sla_hit_rate",
    "perf_cpu_only_vs_cpu_gpu",
    "perf_centaur_vs_cpu_gpu",
    "eff_cpu_only_vs_cpu_gpu",
    "eff_centaur_vs_cpu_gpu",
    "eff_centaur_vs_cpu_only",
    "geomean_perf_cpu_only_vs_cpu_gpu",
    "geomean_eff_cpu_only_vs_cpu_gpu",
    "geomean_eff_centaur_vs_cpu_only",
    "cpu_gbps",
    "centaur_gbps",
    "channel_effective_gbps",
    # sim_perf rates (v1.7): lower is worse, but these are host-time
    # measurements - see WALL_RATE_KEYS for their loosened gate.
    "requests_per_sec",
    "sim_events_per_sec",
}

# Wall-derived rates (sim_perf, v1.7): real regressions matter, but
# the absolute values move with the host the report was produced on,
# so the baseline gate only fires on an order-of-magnitude collapse
# (> 90% drop) rather than the regular --threshold.
WALL_RATE_KEYS = {
    "requests_per_sec",
    "sim_events_per_sec",
}
WALL_RATE_THRESHOLD = 0.90

# Known metric keys that are reported but never gate a baseline diff:
# configuration knobs echoed into records (peak bandwidths, SLA and
# window budgets, offered rates) and accounting values that can
# legitimately move in either direction (per-worker busy_us rises
# when coalescing improves; per-resource wait_us shifts as load moves
# between resources). tools/centaur_lint.py's schema-sync rule
# requires every *_us/*_gbps/... key the C++ writers emit to appear
# in exactly one of these tables, so additions to the report schema
# must be classified here before they land.
NEUTRAL_KEYS = {
    "busy_us",
    "wait_us",
    "phase_us",
    "offered_rps",
    "arrival_rate_per_sec",
    "coalesce_window_us",
    "queue_timeout_us",
    "sla_target_us",
    "raw_gbps",
    "channel_raw_gbps",
    "dram_peak_gbps",
    "host_dram_gbps",
    "pcie_gbps",
    # Cluster records (v1.4). Network knobs echoed from the cluster
    # spec; per-node/per-NIC accounting that shifts with routing
    # (a locality win moves busy time between NICs and nodes); and
    # the invariant-block inputs, which are gated by their boolean
    # verdicts (remote_not_faster / affinity_not_slower), not by
    # baseline drift.
    "nic_gbps",
    "read_latency_us",
    "setup_us",
    "node_energy_joules",
    "remote_gather_us",
    "straggler_wait_us",
    "tx_busy_us",
    "rx_busy_us",
    "tx_wait_us",
    "rx_wait_us",
    "local_service_us",
    "remote_service_us",
    "affinity_p99_us",
    "random_p99_us",
    # Cache-tier records (v1.5). Saved-time accounting is zero on
    # cache-less runs and scales with hit volume, and the
    # cache_matrix invariant inputs are gated by their boolean
    # verdicts (hit_rate_monotone / cache_not_slower), not by
    # baseline drift.
    "fabric_saved_us",
    "cache_saved_us",
    "cached_p50_us",
    "uncached_p50_us",
    # Control-plane records (v1.6). SLO budgets echoed from the
    # workload grammar; the adaptive batcher's window trajectory and
    # hedging's time/energy spend, which scale with policy choices;
    # idle energy, which the autoscaler trades against capacity; and
    # the slo_matrix invariant-block inputs, gated by their boolean
    # verdicts (adaptive_meets / no_regression / p999_reduced /
    # joules_ok / band_ok), not by baseline drift. sim_wall_us is the
    # one sanctioned host-time stamp and never comparable.
    "target_us",
    "p99_target_us",
    "diurnal_amplitude",
    "diurnal_period_sec",
    "idle_energy_joules",
    "window_min_us",
    "window_mean_us",
    "window_max_us",
    "window_final_us",
    "hedge_wasted_us",
    "hedge_energy_joules",
    "fixed_p99_us",
    "adaptive_p99_us",
    "fixed_p999_us",
    "hedged_p999_us",
    "fixed_joules_per_query",
    "hedged_joules_per_query",
    # sim_events is gated exactly on sim_perf records
    # (check_sim_events), not by relative drift.
    "sim_events",
    "sim_wall_us",
}


class Checker:
    def __init__(self):
        self.failures = []

    def fail(self, msg):
        self.failures.append(msg)

    def check(self, cond, msg):
        if not cond:
            self.fail(msg)
        return cond


def walk_numeric(node, path=""):
    """Yield (path, key, value) for every leaf in the document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk_numeric(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk_numeric(value, f"{path}[{i}]")
    else:
        key = path.rsplit(".", 1)[-1].split("[", 1)[0]
        yield path, key, node


def check_sanity(chk, doc):
    for path, key, value in walk_numeric(doc):
        if value is None:
            chk.fail(f"null metric (NaN/Inf in the simulator?): {path}")
            continue
        if isinstance(value, bool) or isinstance(value, str):
            continue
        if isinstance(value, (int, float)):
            if not math.isfinite(value):
                chk.fail(f"non-finite number: {path} = {value}")
            elif key in POSITIVE_KEYS and not value > 0.0:
                chk.fail(f"non-positive {key}: {path} = {value}")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_schema(chk, doc):
    chk.check(doc.get("schema_version") == SCHEMA_VERSION,
              f"top-level schema_version != {SCHEMA_VERSION}")
    chk.check(doc.get("schema_minor") == SCHEMA_MINOR,
              f"top-level schema_minor != {SCHEMA_MINOR}")
    chk.check(doc.get("kind") == "bench_report",
              "top-level kind != bench_report")
    suites = doc.get("suites")
    if not chk.check(isinstance(suites, dict), "missing suites object"):
        return {}
    for name in EXPECTED_SUITES:
        if not chk.check(name in suites, f"missing suite: {name}"):
            continue
        env = suites[name]
        chk.check(env.get("schema_version") == SCHEMA_VERSION,
                  f"suite {name}: schema_version != {SCHEMA_VERSION}")
        chk.check(env.get("schema_minor") == SCHEMA_MINOR,
                  f"suite {name}: schema_minor != {SCHEMA_MINOR}")
        chk.check(isinstance(env.get("data"), dict),
                  f"suite {name}: missing data payload")
        # v1.6 cost stamps on every suite envelope: sim_events is a
        # deterministic function of the simulated work (identical at
        # any --jobs), sim_wall_us is host time (NEUTRAL).
        for stamp in ("sim_events", "sim_wall_us"):
            value = env.get(stamp)
            chk.check(isinstance(value, (int, float))
                      and not isinstance(value, bool) and value >= 0,
                      f"suite {name}: missing cost stamp {stamp}")
    return suites


def walk_nodes(node, path=""):
    """Yield (path, node) for every dict in the document."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from walk_nodes(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from walk_nodes(value, f"{path}[{i}]")


def check_spec_stamps(chk, suites):
    """Schema v1.1/v1.2: every *_entry record names its full
    scenario: backend spec, model and workload."""
    records = 0
    for path, node in walk_nodes(suites):
        kind = node.get("kind")
        if not (isinstance(kind, str) and kind.endswith("_entry")):
            continue
        records += 1
        for key in ("spec", "model", "workload"):
            value = node.get(key)
            chk.check(isinstance(value, str) and value != "",
                      f"record without a {key} stamp: {path} "
                      f"(kind {kind})")
    chk.check(records > 0, "no *_entry records found in the report")


def check_fabric_stamps(chk, suites):
    """Schema v1.3: serving stats carry the contention surface -
    a fabric array on the stats object and fabric_wait_us on every
    per-worker record (0.0 on uncontended runs)."""
    stats_seen = 0
    for path, node in walk_nodes(suites):
        if "per_worker" not in node:
            continue
        stats_seen += 1
        chk.check(isinstance(node.get("fabric"), list),
                  f"serving stats without a fabric array: {path}")
        chk.check(isinstance(node.get("fabric_wait_us"), (int, float)),
                  f"serving stats without fabric_wait_us: {path}")
        for i, worker in enumerate(node.get("per_worker", [])):
            chk.check(isinstance(worker.get("fabric_wait_us"),
                                 (int, float)),
                      f"per-worker record without fabric_wait_us: "
                      f"{path}.per_worker[{i}]")
    chk.check(stats_seen > 0, "no serving stats found in the report")


def check_cache_stamps(chk, suites):
    """Schema v1.5: serving stats carry the cache-tier surface -
    a cache object on the stats object and hit/miss/saved counters
    on every per-worker record (all-zero without a cache tier)."""
    for path, node in walk_nodes(suites):
        if "per_worker" not in node:
            continue
        cache = node.get("cache")
        if chk.check(isinstance(cache, dict),
                     f"serving stats without a cache object: {path}"):
            for key in ("hits", "misses", "evictions",
                        "rejected_fills", "hit_rate",
                        "bytes_resident", "fabric_saved_us"):
                chk.check(isinstance(cache.get(key), (int, float)),
                          f"cache object without {key}: {path}.cache")
        for i, worker in enumerate(node.get("per_worker", [])):
            for key in ("cache_hits", "cache_misses",
                        "cache_saved_us"):
                chk.check(isinstance(worker.get(key), (int, float)),
                          f"per-worker record without {key}: "
                          f"{path}.per_worker[{i}]")


def check_invariants(chk, suites):
    # fig14: Centaur beats CPU-only at every preset -- geomean over
    # the batch sweep and strictly at batch 1 (the latency-critical
    # serving point the paper leads with). Individual large-batch
    # points may dip below 1x for DLRM(4)/(5), as in the paper.
    data = suites.get("fig14", {}).get("data", {})
    records = data.get("records", [])
    chk.check(len(records) > 0, "fig14: no records")
    by_preset = {}
    for rec in records:
        by_preset.setdefault(rec["preset"], []).append(rec)
    for preset, recs in sorted(by_preset.items()):
        speedups = [r["speedup"] for r in recs]
        if min(speedups) <= 0:
            continue  # already reported by the sanity pass
        gm = geomean(speedups)
        chk.check(gm >= 1.0,
                  f"fig14: preset {preset} geomean speedup {gm:.2f} < 1"
                  " (Centaur slower than CPU-only)")
        b1 = [r["speedup"] for r in recs if r["batch"] == 1]
        chk.check(bool(b1) and b1[0] >= 1.0,
                  f"fig14: preset {preset} batch-1 speedup"
                  f" {b1[0] if b1 else 'missing'} < 1")

    # fig13: mean gather-bandwidth improvement over CPU-only.
    data = suites.get("fig13", {}).get("data", {})
    gm = data.get("mean_improvement_geomean", 0.0)
    chk.check(isinstance(gm, (int, float)) and gm >= 1.0,
              f"fig13: geomean BW improvement {gm} < 1")

    # fig15: Centaur more energy-efficient than CPU-only on average.
    data = suites.get("fig15", {}).get("data", {})
    gm = data.get("geomean_eff_centaur_vs_cpu_only", 0.0)
    chk.check(isinstance(gm, (int, float)) and gm >= 1.0,
              f"fig15: geomean Centaur-vs-CPU efficiency {gm} < 1")

    # serving_scaling: throughput scales with workers under overload.
    data = suites.get("serving_scaling", {}).get("data", {})
    checks = data.get("scaling_checks", [])
    chk.check(len(checks) > 0, "serving_scaling: no scaling_checks")
    for entry in checks:
        chk.check(entry.get("monotonic") is True,
                  "serving_scaling: throughput not monotonic in"
                  f" workers at coalesce {entry.get('coalesce')}")

    # table2: the modeled design must fit the GX1150.
    data = suites.get("table2", {}).get("data", {})
    chk.check(data.get("fits") is True,
              "table2: design does not fit the GX1150")

    # spec_matrix: the cross product covers the registry, and every
    # FPGA-resident MLP stage beats the CPU MLP stage once batching
    # amortizes it (batch >= 64), wherever its embeddings come from.
    data = suites.get("spec_matrix", {}).get("data", {})
    specs_run = data.get("specs_run", [])
    for spec in EXPECTED_SPECS:
        chk.check(spec in specs_run,
                  f"spec_matrix: spec {spec} not run")
    checks = data.get("mlp_ordering_checks", [])
    chk.check(len(checks) > 0, "spec_matrix: no mlp_ordering_checks")
    for entry in checks:
        chk.check(entry.get("fpga_mlp_faster") is True,
                  f"spec_matrix: {entry.get('spec')} MLP stage does"
                  f" not beat the CPU MLP at batch"
                  f" {entry.get('batch')}")

    # scenario_matrix: the cross product is wide enough (specs x
    # models x workload distributions), and on every cache-backed
    # spec zipf traffic is not slower than uniform at the same
    # batch - popularity skew must help a cache, never hurt it.
    data = suites.get("scenario_matrix", {}).get("data", {})
    for key, need in (("specs_run", SCENARIO_MIN_SPECS),
                      ("models_run", SCENARIO_MIN_MODELS),
                      ("workloads_run", SCENARIO_MIN_WORKLOADS)):
        got = data.get(key, [])
        chk.check(len(got) >= need,
                  f"scenario_matrix: only {len(got)} {key}"
                  f" (need >= {need})")
    checks = data.get("skew_checks", [])
    chk.check(len(checks) > 0, "scenario_matrix: no skew_checks")
    for entry in checks:
        chk.check(entry.get("zipf_not_slower") is True,
                  f"scenario_matrix: {entry.get('workload')} slower"
                  f" than uniform on {entry.get('spec')}"
                  f" / {entry.get('model')} at batch"
                  f" {entry.get('batch')}")

    # contention_matrix: on one shared node, mean service latency
    # (including fabric queueing) never improves as co-located
    # workers scale, every record reports live fabric stats, and
    # the paper's headline claim holds under load - the in-package
    # pairing degrades strictly less than the PCIe-attached one.
    data = suites.get("contention_matrix", {}).get("data", {})
    checks = data.get("monotone_checks", [])
    chk.check(len(checks) > 0, "contention_matrix: no monotone_checks")
    for entry in checks:
        chk.check(entry.get("monotone") is True,
                  "contention_matrix: service latency not monotone"
                  f" in workers on {entry.get('spec')}")
    for rec in data.get("records", []):
        fabric = rec.get("stats", {}).get("fabric", [])
        chk.check(len(fabric) > 0,
                  "contention_matrix: record without fabric stats"
                  f" ({rec.get('spec')}, {rec.get('workers')}w)")
    checks = data.get("package_checks", [])
    chk.check(len(checks) > 0, "contention_matrix: no package_checks")
    for entry in checks:
        chk.check(entry.get("package_beats_pcie") is True,
                  "contention_matrix: cpu+fpga does not degrade less"
                  f" than cpu+gpu at {entry.get('workers')} workers"
                  f" ({entry.get('package_degradation')} vs"
                  f" {entry.get('pcie_degradation')})")

    # cluster_matrix (v1.4): every record carries the full cluster
    # breakdown (per-node fabric arrays on the contended suite run,
    # per-shard gather hit counts), remote gathers never make a
    # multi-node cluster faster than the single-node anchor on the
    # same request stream, and under zipf skew with range sharding
    # affinity routing's p99 never loses to random routing.
    data = suites.get("cluster_matrix", {}).get("data", {})
    records = data.get("records", [])
    chk.check(len(records) > 0, "cluster_matrix: no records")
    for rec in records:
        stats = rec.get("stats", {})
        label = f"{rec.get('cluster')} / {rec.get('workload')}"
        per_node = stats.get("per_node", [])
        chk.check(len(per_node) == rec.get("nodes"),
                  f"cluster_matrix: {label}: {len(per_node)} per_node"
                  f" records for {rec.get('nodes')} nodes")
        for node in per_node:
            chk.check(len(node.get("fabric", [])) > 0,
                      f"cluster_matrix: {label}: node"
                      f" {node.get('node')} without fabric stats")
        chk.check(len(stats.get("per_shard", [])) > 0,
                  f"cluster_matrix: {label}: no per_shard records")
    checks = data.get("remote_checks", [])
    chk.check(len(checks) > 0, "cluster_matrix: no remote_checks")
    for entry in checks:
        chk.check(entry.get("remote_not_faster") is True,
                  f"cluster_matrix: {entry.get('cluster')} beats the"
                  " single-node anchor on the same request stream"
                  f" ({entry.get('remote_service_us')} vs"
                  f" {entry.get('local_service_us')} us)")
    checks = data.get("affinity_checks", [])
    chk.check(len(checks) > 0, "cluster_matrix: no affinity_checks")
    for entry in checks:
        chk.check(entry.get("affinity_not_slower") is True,
                  f"cluster_matrix: affinity p99 loses to random at"
                  f" {entry.get('nodes')} nodes under"
                  f" {entry.get('workload')}"
                  f" ({entry.get('affinity_p99_us')} vs"
                  f" {entry.get('random_p99_us')} us)")

    # cache_matrix (v1.5): every record carries live cache stats, the
    # hit rate never drops as zipf skew rises at fixed capacity, a
    # cached run's p50 never loses to the cache-less anchor on the
    # same request stream, /cache:0 is identical to the bare spec,
    # and a hit-rate knee exists for every (model, workload) cell.
    data = suites.get("cache_matrix", {}).get("data", {})
    records = data.get("records", [])
    chk.check(len(records) > 0, "cache_matrix: no records")
    for rec in records:
        stats = rec.get("stats", {})
        label = f"{rec.get('spec')} / {rec.get('workload')}"
        chk.check(isinstance(stats.get("cache"), dict),
                  f"cache_matrix: {label}: record without cache"
                  " stats")
        if rec.get("cache_mb", 0) > 0 and not rec.get("anchor"):
            cache = stats.get("cache", {})
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            chk.check(lookups > 0,
                      f"cache_matrix: {label}: cache tier saw no"
                      " lookups")
    checks = data.get("hit_rate_checks", [])
    chk.check(len(checks) > 0, "cache_matrix: no hit_rate_checks")
    for entry in checks:
        chk.check(entry.get("hit_rate_monotone") is True,
                  f"cache_matrix: hit rate drops with skew on"
                  f" {entry.get('model')} at"
                  f" {entry.get('cache_mb')} MB"
                  f" ({entry.get('skew_lo')}:"
                  f" {entry.get('hit_rate_lo')} ->"
                  f" {entry.get('skew_hi')}:"
                  f" {entry.get('hit_rate_hi')})")
    checks = data.get("cache_checks", [])
    chk.check(len(checks) > 0, "cache_matrix: no cache_checks")
    for entry in checks:
        chk.check(entry.get("cache_not_slower") is True,
                  f"cache_matrix: {entry.get('cache_mb')} MB cache"
                  f" makes {entry.get('model')} /"
                  f" {entry.get('workload')} slower"
                  f" ({entry.get('cached_p50_us')} vs"
                  f" {entry.get('uncached_p50_us')} us p50)")
    checks = data.get("zero_checks", [])
    chk.check(len(checks) > 0, "cache_matrix: no zero_checks")
    for entry in checks:
        chk.check(entry.get("zero_identical") is True,
                  f"cache_matrix: /cache:0 differs from the bare"
                  f" spec on {entry.get('model')} /"
                  f" {entry.get('workload')}")
    knees = data.get("knee_points", [])
    chk.check(len(knees) > 0, "cache_matrix: no knee_points")

    # slo_matrix (v1.6): every record carries the control-plane
    # surface (a ctrl object and a per-class SLO array), the adaptive
    # batcher meets a p99 target the fixed window misses in at least
    # one cell without ever regressing a met target, hedging cuts the
    # p999 tail somewhere and stays within the 10% energy budget
    # everywhere, and the autoscaler never leaves the [1, pool] band.
    data = suites.get("slo_matrix", {}).get("data", {})
    records = data.get("records", [])
    chk.check(len(records) > 0, "slo_matrix: no records")
    for rec in records:
        stats = rec.get("stats", {})
        label = f"{rec.get('scope')} / {rec.get('policy')}"
        ctrl = stats.get("ctrl")
        if chk.check(isinstance(ctrl, dict),
                     f"slo_matrix: {label}: record without ctrl"
                     " stats"):
            chk.check(ctrl.get("policy") == rec.get("policy"),
                      f"slo_matrix: {label}: ctrl.policy"
                      f" {ctrl.get('policy')} != spec policy")
        per_class = stats.get("per_class", [])
        chk.check(len(per_class) > 0,
                  f"slo_matrix: {label}: record without per_class"
                  " SLO stats")
    checks = data.get("slo_checks", [])
    chk.check(len(checks) > 0, "slo_matrix: no slo_checks")
    adaptive_earns_keep = False
    for entry in checks:
        if entry.get("adaptive_meets") and not entry.get("fixed_meets"):
            adaptive_earns_keep = True
        chk.check(entry.get("no_regression") is True,
                  f"slo_matrix: adaptive turns a met {entry.get('slo_class')}"
                  f" target into a miss on {entry.get('scope')} /"
                  f" {entry.get('workload')}"
                  f" ({entry.get('fixed_p99_us')} ->"
                  f" {entry.get('adaptive_p99_us')} us p99)")
    chk.check(adaptive_earns_keep,
              "slo_matrix: no cell where adaptive batching meets a"
              " p99 target the fixed window misses")
    checks = data.get("hedge_checks", [])
    chk.check(len(checks) > 0, "slo_matrix: no hedge_checks")
    hedge_earns_keep = False
    for entry in checks:
        if entry.get("p999_reduced"):
            hedge_earns_keep = True
        chk.check(entry.get("joules_ok") is True,
                  f"slo_matrix: hedging raises joules-per-query by"
                  f" more than 10% on {entry.get('scope')} /"
                  f" {entry.get('workload')}"
                  f" ({entry.get('fixed_joules_per_query')} ->"
                  f" {entry.get('hedged_joules_per_query')})")
    chk.check(hedge_earns_keep,
              "slo_matrix: no cell where hedging cuts the p999 tail")
    checks = data.get("scale_checks", [])
    chk.check(len(checks) > 0, "slo_matrix: no scale_checks")
    for entry in checks:
        chk.check(entry.get("band_ok") is True,
                  f"slo_matrix: autoscaler left the [1, pool] band on"
                  f" {entry.get('scope')} / {entry.get('workload')}"
                  f" (active [{entry.get('active_min')},"
                  f" {entry.get('active_max')}] of"
                  f" {entry.get('pool')})")

    # sim_perf (v1.7): every cell's engine executed events. How many
    # is gated against the baseline (check_sim_events).
    events = sim_perf_events(suites)
    chk.check(len(events) > 0, "sim_perf: no records")
    for cell, n in events.items():
        chk.check(isinstance(n, int) and not isinstance(n, bool) and n > 0,
                  f"sim_perf: {cell} sim_events {n!r} is not a positive"
                  f" count")


def sim_perf_events(suites):
    """{cell: sim_events} over the sim_perf records."""
    data = suites.get("sim_perf", {}).get("data", {})
    return {rec.get("cell"): rec.get("sim_events")
            for rec in data.get("records", [])}


def check_sim_events(chk, suites, baseline):
    """The events each sim_perf cell's engine executed are a pure
    function of the simulated work, so they must equal the
    baseline's exactly, at any --jobs and on any host. A host-timed
    speed floor failed on noise here; host speed is bench/perf's to
    judge, over paired runs."""
    old = sim_perf_events(baseline.get("suites", {}))
    for cell, events in sim_perf_events(suites).items():
        chk.check(cell in old,
                  f"sim_perf: cell {cell} is not in the baseline")
        if cell in old:
            chk.check(events == old[cell],
                      f"sim_perf: {cell} sim_events {events} !="
                      f" baseline {old[cell]}")


def diff_baseline(chk, doc, baseline, threshold, top=10):
    current = {p: v for p, k, v in walk_numeric(doc.get("suites", {}))
               if isinstance(v, (int, float))
               and not isinstance(v, bool)}
    old = {p: v for p, k, v in walk_numeric(baseline.get("suites", {}))
           if isinstance(v, (int, float)) and not isinstance(v, bool)}
    shared = sorted(set(current) & set(old))
    if not shared:
        chk.fail("baseline: no shared numeric metrics to compare")
        return
    deltas = []
    for path in shared:
        a, b = old[path], current[path]
        if a == b:
            continue
        rel = (b - a) / abs(a) if a != 0 else math.inf
        deltas.append((abs(rel), rel, path, a, b))
    deltas.sort(reverse=True)
    print(f"baseline diff: {len(shared)} shared metrics, "
          f"{len(deltas)} changed")
    for _, rel, path, a, b in deltas[:top]:
        print(f"  {rel:+8.1%}  {path}: {a:g} -> {b:g}")
    if threshold is None:
        return
    for _, rel, path, a, b in deltas:
        key = path.rsplit(".", 1)[-1].split("[", 1)[0]
        worse_up = key in HIGHER_IS_WORSE
        worse_down = key in LOWER_IS_WORSE
        if key in WALL_RATE_KEYS:
            # Host-time rate: gate only on a collapse, not on the
            # machine the baseline happened to be recorded on.
            if rel < -WALL_RATE_THRESHOLD:
                chk.fail(f"wall-rate collapse vs baseline: {path} "
                         f"{a:g} -> {b:g} ({rel:+.1%} < "
                         f"-{WALL_RATE_THRESHOLD:.0%})")
            continue
        if worse_up and rel > threshold:
            chk.fail(f"regression vs baseline: {path} "
                     f"{a:g} -> {b:g} ({rel:+.1%} > {threshold:.0%})")
        elif worse_down and rel < -threshold:
            chk.fail(f"regression vs baseline: {path} "
                     f"{a:g} -> {b:g} ({rel:+.1%} < -{threshold:.0%})")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_bench: cannot load {path}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description="Validate a centaur_bench JSON report.")
    parser.add_argument("report", help="BENCH_results.json to check")
    parser.add_argument("--baseline", metavar="OLD",
                        help="previous report to diff against")
    parser.add_argument("--threshold", type=float, default=None,
                        metavar="FRAC",
                        help="fail when a metric regresses vs the "
                             "baseline by more than FRAC (e.g. 0.10)")
    args = parser.parse_args()

    doc = load(args.report)
    chk = Checker()
    suites = check_schema(chk, doc)
    check_sanity(chk, suites)
    if suites:
        check_spec_stamps(chk, suites)
        check_fabric_stamps(chk, suites)
        check_cache_stamps(chk, suites)
        check_invariants(chk, suites)
    if args.baseline:
        baseline = load(args.baseline)
        diff_baseline(chk, doc, baseline, args.threshold)
        if suites:
            check_sim_events(chk, suites, baseline)

    if chk.failures:
        print(f"check_bench: FAIL ({len(chk.failures)} problems)")
        for msg in chk.failures:
            print(f"  - {msg}")
        sys.exit(1)
    n = len(doc.get("suites", {}))
    print(f"check_bench: OK ({n} suites, "
          f"schema v{SCHEMA_VERSION}.{SCHEMA_MINOR})")
    sys.exit(0)


if __name__ == "__main__":
    main()
