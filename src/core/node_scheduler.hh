/**
 * @file
 * The one serving engine behind ServingEngine (core/server.hh, one
 * node) and ClusterEngine (cluster/engine.hh, N nodes).
 *
 * A run is built from three pieces:
 *  - ArrivalStream: every request's arrival time, burst tag and
 *    payload, drawn up front in request-id order, so shedding and
 *    routing downstream can never perturb the draw sequence;
 *  - NodeScheduler: one node's admission queue and workers. Each
 *    scheduling round is an event on the run's ShardedEventQueue
 *    (one shard per node): the earliest-free active worker admits
 *    arrivals (dropping past the queue cap), waits out the
 *    coalescing window, sheds timed-out requests, dispatches the
 *    coalesced batch and books a hedge's primary/clone outcome;
 *  - ServingAccumulator: the run's latency, service, queueing, SLA
 *    and per-class samples.
 * ServingRun owns all three plus the control plane (service
 * quantile, autoscaler) and finalises ServingStats.
 *
 * Only four decisions differ between the engines; each is a
 * ServingRun hook or constructor flag:
 *  - hedgePeer(): where a straggler's clone runs - the other
 *    earliest-free worker of the same node, or the next active node;
 *  - scale(): what the autoscaler drains or re-adds - one worker, or
 *    a whole node whose unadmitted arrivals are redistributed;
 *  - parkIdle: a node with an empty queue re-fires at its next
 *    arrival's tick (one extra event) instead of admitting it at the
 *    current event time. The cluster parks so NIC grants are
 *    requested in near-global time order; one node never does;
 *  - gatherUs(): service time a dispatch adds waiting for embedding
 *    rows held on other nodes (none on one node).
 */

#ifndef CENTAUR_CORE_NODE_SCHEDULER_HH
#define CENTAUR_CORE_NODE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/server.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace centaur {

/** Arrival times, burst tags and payloads of one run, by request id. */
struct ArrivalStream
{
    ArrivalStream(const DlrmConfig &model, const ServingConfig &cfg);

    std::vector<double> us;
    /** 1 when the gap was drawn in a Burst process's burst state. */
    std::vector<std::uint8_t> burst;
    std::vector<InferenceBatch> payloads;
    /** A Burst process with factor > 1: drops are classified. */
    bool bursty = false;
};

/** Outcome samples and counters of one run, across its nodes. */
struct ServingAccumulator
{
    explicit ServingAccumulator(const ServingConfig &cfg);

    /** Worst latency and tightest class target of one batch. */
    struct Batch
    {
        double worstUs = 0.0;
        double tightestTargetUs = 0.0;
    };

    /**
     * Record one dispatched batch of requests @p ids (arrived at
     * @p arrival_us), dispatched at @p dispatch_us, completed at
     * @p complete_us after @p service_us of service.
     */
    Batch record(const std::vector<std::uint32_t> &ids,
                 const std::vector<double> &arrival_us,
                 double dispatch_us, double complete_us,
                 double service_us);

    const ServingConfig &cfg;
    StatHistogram latency{0.0, 100000.0, 2000}; // us, 50 us buckets
    StatAverage service;
    StatAverage queueing;
    /** Per-SLO-class outcome; the class of request r is r % classes. */
    std::vector<StatHistogram> classLatency;
    std::vector<std::uint64_t> classServed;
    std::vector<std::uint64_t> classWithin;
    std::uint64_t served = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t slaHits = 0;
    std::uint64_t droppedBurst = 0;
    std::uint64_t droppedIdle = 0;
    double energyJoules = 0.0;
    double lastCompletionUs = 0.0;
    /** Hedge counters; ServingRun::finish fills in the rest. */
    CtrlStats ctrl;
};

class ServingRun;

/** One node's admission queue and worker fleet. */
class NodeScheduler
{
  public:
    NodeScheduler(ServingRun &run, std::uint32_t index,
                  std::vector<System *> workers, Fabric *fabric);
    /** Pending events hold the scheduler's address. */
    NodeScheduler(const NodeScheduler &) = delete;
    NodeScheduler &operator=(const NodeScheduler &) = delete;

    /** Earliest-free active worker, lowest index on ties. */
    std::size_t earliest() const;
    /** Schedule a round of this node at max(now, @p when). */
    void wake(Tick when);
    /** Stop accruing worker @p i's provisioned (idle-energy) time. */
    void powerDown(std::size_t i, double now_us);
    /** Resume it; the worker cannot start before @p now_us. */
    void powerUp(std::size_t i, double now_us);
    /** The workers' hot-row cache tiers, each counted once. */
    CacheStats cacheStats() const;
    /** Per-resource fabric accounting; empty without a fabric. */
    std::vector<FabricResourceStats> fabricStats(Tick horizon) const;

    const std::uint32_t index; //!< event-queue shard
    const std::vector<System *> workers;
    Fabric *const fabric;
    /** Request ids routed here, ascending (= arrival order). */
    std::vector<std::uint32_t> ids;
    std::size_t next = 0; //!< next unadmitted index into ids
    std::vector<double> freeUs;
    std::vector<WorkerStats> stats;
    /** Workers rounds may dispatch to. */
    std::vector<std::uint8_t> active;
    /** Provisioned-time accounting, per worker. */
    std::vector<std::uint8_t> up;
    std::vector<double> upSinceUs;
    std::vector<double> upUs;
    std::uint64_t droppedFull = 0;
    std::uint64_t droppedTimeout = 0;
    std::uint64_t served = 0;
    std::uint64_t dispatches = 0;
    double energyJoules = 0.0;
    /** This node's coalescing-window controller. */
    AdaptiveBatcher batcher;

  private:
    struct Pending
    {
        std::uint32_t id;
        double arrivalUs;
    };

    /** Captureless trampoline: one POD event per round. */
    static void fire(void *self);
    void round();
    void admitUpTo(double t_us);
    void classifyDrop(std::uint32_t id);
    /** Book a completed dispatch of @p requests on worker @p w. */
    void credit(std::size_t w, double busy_us, std::size_t requests,
                const InferenceResult &res);

    ServingRun &_run;
    std::deque<Pending> _queue;
    /** Per-round scratch, reused so rounds do not allocate. */
    std::vector<std::uint32_t> _batchIds;
    std::vector<double> _batchArrivals;
};

/** Where a hedged clone runs; null node = no clone. */
struct HedgePeer
{
    NodeScheduler *node = nullptr;
    std::size_t worker = 0;
};

/** One serving run: arrivals, node schedulers, control plane. */
class ServingRun
{
  public:
    /**
     * @param ctrl the resolved control-plane policy
     * @param nodes node count (event-queue shards)
     * @param pool units the hedger and autoscaler choose among:
     *        workers on one node, nodes in a cluster
     * @param park_idle see the file comment
     */
    ServingRun(const ServingConfig &cfg, const CtrlConfig &ctrl,
               const DlrmConfig &model, std::uint32_t nodes,
               std::uint32_t pool, bool park_idle);
    virtual ~ServingRun() = default;
    ServingRun(const ServingRun &) = delete;
    ServingRun &operator=(const ServingRun &) = delete;

    /** Add the next node; its id list starts empty. */
    NodeScheduler &addNode(std::vector<System *> workers,
                           Fabric *fabric);

    /** Start every node at tick 0 and run until all drain. */
    void simulate();

    /**
     * The run's aggregate outcome. Also stamps each worker's
     * utilization into its node's stats. Fabric rows are left to
     * the engine (one node reports its own, a cluster per node).
     */
    ServingStats finish();

    /** Clone target for a straggler on worker @p w of @p node. */
    virtual HedgePeer hedgePeer(NodeScheduler &node, std::size_t w) = 0;
    /** Apply one autoscaler decision (@p dir: -1 drain, +1 add). */
    virtual void scale(int dir, double now_us) = 0;
    /** Service time added waiting on remote embedding rows. */
    virtual double
    gatherUs(NodeScheduler &, double, const InferenceBatch &,
             const InferenceResult &)
    {
        return 0.0;
    }

    const ServingConfig &cfg;
    const CtrlConfig ctrl;
    const std::uint32_t pool;
    const bool adaptive;
    const bool hedging;
    const bool scaling;
    const bool parkIdle;
    const ArrivalStream arrivals;
    ShardedEventQueue events;
    std::deque<NodeScheduler> nodes;
    ServingAccumulator acc;
    ServiceQuantile svcQuantile;
    Autoscaler scaler;
    /** Busy time since the autoscaler's last decision. */
    double intervalBusyUs = 0.0;
};

/** Fatal unless @p cfg describes a runnable serving workload. */
void checkServingConfig(const ServingConfig &cfg, const char *engine);

} // namespace centaur

#endif // CENTAUR_CORE_NODE_SCHEDULER_HH
