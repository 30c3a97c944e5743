/**
 * @file
 * Inference-serving simulation on top of one or more design points.
 *
 * The paper motivates Centaur with user-facing cloud serving under
 * firm SLAs (Section IV-A); this layer closes the loop: Poisson,
 * bursty or diurnal request arrivals feed an arrival-ordered
 * admission queue in front of N worker systems. A dynamic batching
 * window coalesces queued requests into one InferenceBatch per
 * dispatch (amortizing MLP/FI cost exactly as the paper's batch
 * sweeps do), and an overload-safe drop/timeout policy bounds the
 * queue. The simulator reports the end-to-end (queue + service)
 * latency distribution, throughput, per-worker utilization and
 * energy - the quantities an operator actually provisions against.
 *
 * ServingEngine is one node of the shared serving engine
 * (core/node_scheduler.hh): a single NodeScheduler on the event
 * queue, with ClusterEngine (cluster/engine.hh) driving N of them.
 * Of the four decisions the engines make differently, one node
 * takes these: a straggler's hedged clone runs on the node's other
 * earliest-free active worker; the autoscaler drains the
 * highest-index active worker and re-adds the lowest-index drained
 * one; an idle worker admits its next arrival without parking on an
 * extra event; and no dispatch waits on a remote gather.
 */

#ifndef CENTAUR_CORE_SERVER_HH
#define CENTAUR_CORE_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "core/fabric.hh"
#include "core/system.hh"
#include "ctrlplane/controllers.hh"
#include "dlrm/workload.hh"
#include "sim/stats.hh"

namespace centaur {

/** Serving-engine parameters. */
struct ServingConfig
{
    /** Mean request arrival rate (Poisson), requests per second. */
    double arrivalRatePerSec = 2000.0;
    /** Samples (users/items to score) per request. */
    std::uint32_t batchPerRequest = 8;
    /** Requests to simulate. */
    std::uint32_t requests = 200;
    /** Workload RNG seed. */
    std::uint64_t seed = 1;
    /** Index popularity distribution. */
    IndexDistribution dist = IndexDistribution::Uniform;
    /** Zipf skew when dist == Zipf. */
    double zipfSkew = 0.9;
    /** Trace file replayed per request when dist == Trace. */
    std::string tracePath;
    /** Arrival process shaping the request stream. */
    ArrivalProcess arrival = ArrivalProcess::Poisson;
    /** Peak-to-mean ratio of Burst arrivals (1 = Poisson). */
    double burstFactor = 1.0;
    /** Rate-swing fraction of Diurnal arrivals. */
    double diurnalAmplitude = 0.0;
    /** Compressed day length of Diurnal arrivals (seconds). */
    double diurnalPeriodSec = 0.25;
    /**
     * Latency classes requests are stamped with round-robin
     * (id % classes) at generation time; empty = untracked.
     */
    std::vector<SloClass> sloClasses;

    /**
     * Copy the traffic shape out of a parsed workload spec
     * (dlrm/workload_spec.hh): distribution, skew, trace path,
     * arrival process, and - when the spec pins one - the arrival
     * rate. batchPerRequest/requests/seed are serving knobs and stay.
     */
    void applyWorkload(const WorkloadConfig &wl);

    /** Workload template the engine draws request payloads from. */
    WorkloadConfig workloadConfig() const;

    /** Worker systems draining the shared admission queue. */
    std::uint32_t workers = 1;
    /**
     * Per-worker backend specs (core/backend.hh registry names) for
     * heterogeneous fleets, e.g. {"cpu+fpga", "cpu+fpga", "cpu"}.
     * When non-empty this overrides `workers`: the fleet gets one
     * worker per entry. Empty keeps a homogeneous fleet of
     * `workers` systems built from the caller's design point/spec.
     */
    std::vector<std::string> workerSpecs;
    /** Max queued requests coalesced into one dispatched batch. */
    std::uint32_t maxCoalescedBatch = 1;
    /**
     * Batching window: a free worker with an underfull batch waits
     * up to this long (us) for more arrivals before dispatching.
     * 0 dispatches immediately with whatever is queued.
     */
    double coalesceWindowUs = 0.0;
    /** Admission cap: arrivals beyond this depth are dropped. 0 = unbounded. */
    std::uint32_t maxQueueDepth = 0;
    /** Requests queued longer than this (us) are dropped. 0 = never. */
    double queueTimeoutUs = 0.0;
    /** Optional SLA budget (us) for hit-rate stats. 0 = untracked. */
    double slaTargetUs = 0.0;

    /**
     * Model the workers as co-located on one node sharing a
     * resource fabric (core/fabric.hh): CPU cores, host DRAM
     * bandwidth and the PCIe pipes. Off (the default) keeps the
     * legacy every-worker-owns-the-node timing, tick for tick.
     */
    bool contend = false;
    /** Node resource budgets when contend is set. */
    FabricConfig fabricCfg;

    /**
     * Closed-loop control plane (ctrlplane/): adaptive batching,
     * hedged duplicates, worker autoscaling. Disabled ("ctrl:fixed")
     * keeps the open-loop engine tick-identical.
     */
    CtrlConfig ctrl;
};

/** Per-worker serving results. */
struct WorkerStats
{
    /** Backend spec of the worker system serving these requests. */
    std::string spec;
    std::uint64_t served = 0;     //!< requests completed
    std::uint64_t dispatches = 0; //!< coalesced batches executed
    double busyUs = 0.0;
    double utilization = 0.0; //!< busy time / wall time
    double energyJoules = 0.0;
    /** Queueing behind the node's shared resources (contended runs). */
    double fabricWaitUs = 0.0;
    /** Hot-row cache tier lookups served / missed by this worker. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Fabric/NIC occupancy this worker's cache hits avoided (us). */
    double cacheSavedUs = 0.0;

    /** Mean requests coalesced per dispatch. */
    double
    meanCoalesced() const
    {
        return dispatches ? static_cast<double>(served) /
                                static_cast<double>(dispatches)
                          : 0.0;
    }
};

/** Per-resource accounting of one contended serving run. */
struct FabricResourceStats
{
    std::string resource; //!< nodeResourceName (core/fabric.hh)
    std::uint32_t lanes = 0;
    std::uint64_t grants = 0;
    double busyUs = 0.0;
    double waitUs = 0.0;
    /** Occupied capacity fraction over the run's wall clock. */
    double utilization = 0.0;
};

/** Aggregate serving results. */
struct ServingStats
{
    std::uint64_t offered = 0; //!< requests generated
    std::uint64_t served = 0;  //!< requests completed
    std::uint64_t droppedQueueFull = 0;
    std::uint64_t droppedTimeout = 0;
    /**
     * Drops split by the arrival-state the request was drawn in
     * (burst vs idle gap of a Burst process; both zero otherwise).
     * Shedding never perturbs the arrival draw stream - arrivals are
     * generated up front - so these are a pure classification.
     */
    std::uint64_t droppedBurstArrivals = 0;
    std::uint64_t droppedIdleArrivals = 0;

    double meanServiceUs = 0.0;
    double meanQueueUs = 0.0;
    double meanLatencyUs = 0.0; //!< queue + service, exact accumulator
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double maxLatencyUs = 0.0;
    /** Latency samples beyond the histogram cap (overloaded tail). */
    std::uint64_t latencyOverflow = 0;

    double throughputRps = 0.0;
    double offeredRps = 0.0;
    double utilization = 0.0; //!< mean busy fraction across workers
    double energyJoules = 0.0;
    /** Active-but-idle worker time priced at idle draw (v1.6). */
    double idleEnergyJoules = 0.0;
    /** (energy + idle + hedge energy) / served (v1.6). */
    double joulesPerQuery = 0.0;

    std::uint64_t dispatches = 0;
    double meanCoalescedRequests = 0.0;

    /** SLA budget the hit rate was measured against (us). */
    double slaTargetUs = 0.0;
    /** Fraction of *offered* requests served within the SLA budget. */
    double slaHitRate = 0.0;

    std::vector<WorkerStats> perWorker;

    /** Total shared-resource queueing across the fleet (us). */
    double fabricWaitUs = 0.0;
    /** Per-resource fabric accounting; empty without a fabric. */
    std::vector<FabricResourceStats> fabric;

    /**
     * Hot-row cache tier counters (cachetier/cache_tier.hh),
     * aggregated over the distinct tiers the fleet's workers are
     * attached to (one shared node tier counts once). All-zero
     * when no worker has a tier.
     */
    CacheStats cache;

    /** Per-SLO-class outcome; empty without /slo: classes (v1.6). */
    std::vector<SloClassStats> perClass;
    /** Control-plane outcome; defaults (ctrl:fixed) when open-loop. */
    CtrlStats ctrl;

    double
    dropRate() const
    {
        return offered ? static_cast<double>(droppedQueueFull +
                                             droppedTimeout) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/**
 * Batch-coalescing multi-worker inference service.
 *
 * Workers are non-owning: each must be an independent system built
 * from the same model config (state advances during the run). The
 * run is fully deterministic under ServingConfig::seed.
 */
class ServingEngine
{
  public:
    /**
     * @param workers independent systems draining the shared queue
     * @param cfg serving-engine parameters
     * @param fabric the node fabric the workers were built on, when
     *        they share one (core/fabric.hh); the engine aligns
     *        worker clocks onto the global serving timeline before
     *        each dispatch and reports per-resource stats. Null for
     *        the legacy isolated-worker timing.
     */
    ServingEngine(std::vector<System *> workers,
                  const ServingConfig &cfg, Fabric *fabric = nullptr);

    /** Simulate the configured number of requests. */
    ServingStats run();

    const ServingConfig &config() const { return _cfg; }

  private:
    std::vector<System *> _workers;
    ServingConfig _cfg;
    Fabric *_fabric;
};

/**
 * Build the worker fleet for @p cfg: one system per
 * cfg.workerSpecs entry when set (heterogeneous), else cfg.workers
 * copies of @p default_spec. With @p fabric non-null every worker
 * is built sharing that node fabric; with @p cache non-null every
 * worker shares that node hot-row cache tier (a worker spec with
 * its own `/cache:` part and no shared tier owns a private one).
 */
std::vector<std::unique_ptr<System>>
makeWorkers(const std::string &default_spec, const DlrmConfig &model,
            const ServingConfig &cfg, Fabric *fabric = nullptr,
            CacheTier *cache = nullptr);

/**
 * Spec-based convenience: build the fleet via
 * makeWorkers(default_spec, model, cfg) and run the engine.
 */
ServingStats runServingSim(const std::string &default_spec,
                           const DlrmConfig &model,
                           const ServingConfig &cfg);

struct Scenario; // core/scenario.hh

/**
 * Scenario-based convenience: resolve a single-model scenario
 * (fatal on model sets), apply its workload spec (distribution,
 * arrival process including a pinned "@poisson:"/"@burst:"/
 * "@diurnal:" rate, and any "/slo:" classes) over @p base, and run
 * the engine.
 */
ServingStats runServingSim(const Scenario &sc,
                           const ServingConfig &base = ServingConfig{});

} // namespace centaur

#endif // CENTAUR_CORE_SERVER_HH
