/**
 * @file
 * Machine-readable result reporting: JSON serializers for every
 * measurement record the simulator produces (InferenceResult with
 * its phase breakdown / LayerStats / energy, SweepEntry, the
 * ServingEngine sweep and analysis records). Each record is stamped
 * with the report schema version, the design-point / model
 * configuration it was measured on, and the workload seed, so two
 * runs can be diffed field-by-field (tools/check_bench.py).
 */

#ifndef CENTAUR_CORE_REPORT_HH
#define CENTAUR_CORE_REPORT_HH

#include <cstdint>
#include <string>

#include "core/analysis.hh"
#include "core/experiment.hh"
#include "core/result.hh"
#include "core/server.hh"
#include "dlrm/model_config.hh"
#include "sim/json.hh"

namespace centaur {

/**
 * Version of the emitted report schema. Bump whenever a serializer
 * renames/removes a key or changes a unit; tools/check_bench.py
 * refuses documents whose version it does not understand.
 */
constexpr int kReportSchemaVersion = 1;

/**
 * Minor schema revision: bumped for additive changes. v1.1 stamped
 * every measurement record with the backend-composition `spec`
 * string (core/backend.hh registry) alongside the legacy `design`
 * anchor, and per-worker serving stats carry the worker's spec.
 * v1.2 completes the scenario triple: every measurement record also
 * carries `model` (the DLRM geometry, dlrm/model_registry.hh) and
 * `workload` (the canonical workload spec string,
 * dlrm/workload_spec.hh); paper reproductions stamp their Table I
 * model names and "uniform", so pre-scenario reports stay
 * field-for-field comparable.
 * v1.3 surfaces shared-resource contention (core/fabric.hh): every
 * inference result and per-worker serving record carries
 * `fabric_wait_us` (queueing behind the node's shared resources,
 * 0 when uncontended), and serving stats carry a `fabric` array of
 * per-resource {resource, lanes, grants, busy_us, wait_us,
 * utilization} stamps (empty without a fabric).
 * v1.4 adds cluster-scale serving (src/cluster/): `cluster_entry`
 * records stamp the canonical cluster spec string, the node/shard/
 * route shape, and a `stats` object whose `serving` aggregate keeps
 * the ServingStats layout (per_worker and fabric emptied - a starved
 * node can serve zero and strictly-positive worker keys must never
 * be zero), alongside `per_node` records (own fabric array,
 * node_energy_joules allowed zero), `per_shard` gather-locality hit
 * counts, per-NIC tx/rx busy/wait accounting, and network totals
 * {remote_reads, remote_read_bytes, connection_setups, mean_fanout,
 * straggler_wait_us}.
 * v1.5 adds the hot-row embedding cache tier (src/cachetier/):
 * every per-worker serving record carries `cache_hits`,
 * `cache_misses` and `cache_saved_us`, and serving aggregates plus
 * cluster per-node records carry a `cache` object {hits, misses,
 * evictions, rejected_fills, hit_rate, bytes_resident,
 * fabric_saved_us} - all-zero when no cache tier is configured, so
 * cache-less reports stay field-for-field comparable.
 * v1.6 adds the SLO-driven control plane (src/ctrlplane/): serving
 * aggregates carry `p999_us`, `dropped_burst_arrivals` /
 * `dropped_idle_arrivals` (arrival-state attribution of sheds under
 * burst workloads), `idle_energy_joules` and `joules_per_query`
 * (provisioned-but-idle energy priced in), a `per_class` array of
 * {name, target_us, offered, served, p99_us, attainment} SLO-class
 * records (empty without /slo: parts), and a `ctrl` object with the
 * batching-window trajectory, hedged-duplicate counters and
 * autoscaler trajectory - policy "ctrl:fixed" with all-zero deltas
 * when the control plane is disabled, so open-loop reports stay
 * field-for-field comparable. Serving-config echoes gain the
 * diurnal-arrival and SLO-class knobs.
 * v1.7 adds the simulator self-measurement suite (sim_perf):
 * per-cell records carry `sim_events` (the events the cell's engine
 * executed, deterministic; the CI gate requires it to equal the
 * baseline's), `requests_per_sec`, `sim_events_per_sec` and
 * `events_replayed`. The wall-derived rates are host time and never
 * byte-identity-comparable, like sim_wall_us; the CI gate diffs them
 * only loosely.
 */
constexpr int kReportSchemaMinorVersion = 7;

/** Common stamp: schema version (major+minor), kind and seed. */
Json reportStamp(const std::string &kind, std::uint64_t seed);

/** Model configuration (Table I axes plus derived sizes). */
Json toJson(const DlrmConfig &cfg);

/** Per-layer cache statistics (Figure 6 axes). */
Json toJson(const LayerStats &ls);

/**
 * One end-to-end inference: latency, per-phase ticks and shares,
 * effective gather bandwidth, cache stats, power and energy.
 */
Json toJson(const InferenceResult &res);

/** One (model, batch) sweep point, stamped with its sweep seed. */
Json toJson(const SweepEntry &entry);

/** Per-worker serving statistics. */
Json toJson(const WorkerStats &ws);

/** Per-resource fabric accounting of one contended serving run. */
Json toJson(const FabricResourceStats &fs);

/** Aggregate serving statistics (latency distribution, drops, SLA). */
Json toJson(const ServingStats &stats);

/** One (workers, coalesce, rate) serving sweep point. */
Json toJson(const ServingSweepEntry &entry);

/** Serving-engine configuration knobs. */
Json toJson(const ServingConfig &cfg);

/** Bottleneck-analysis verdict for one phase. */
Json toJson(const PhaseVerdict &verdict);

/** Regime/bottleneck verdict for one serving run. */
Json toJson(const ServingVerdict &verdict);

} // namespace centaur

#endif // CENTAUR_CORE_REPORT_HH
