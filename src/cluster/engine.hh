/**
 * @file
 * Cluster serving engine: N nodes of the shared serving engine
 * (core/node_scheduler.hh) on one event queue, plus sharded remote
 * embedding gather over the modeled network.
 *
 * The run draws the same ArrivalStream as ServingEngine (same RNG
 * streams, request-id order) and routes every request to a node up
 * front (cluster/router.hh). Each node is a NodeScheduler - the very
 * admission, coalescing, shedding and hedge bookkeeping a single
 * node runs - with its own event-queue shard, so cross-node
 * interleaving is deterministic. What the cluster adds is routing,
 * shard/NIC accounting, and its side of the four per-engine
 * decisions:
 *  - hedge peer: a straggler's clone runs on the earliest-free
 *    worker of the next active node;
 *  - autoscaler victim: a whole node; draining one redistributes its
 *    unadmitted arrivals round-robin over the active nodes;
 *  - parking: a node with an empty queue re-fires at its next
 *    arrival's tick, so NIC grants are requested in near-global time
 *    order;
 *  - gather charge: rows on other nodes fan out as one one-sided
 *    read per owner node, and the dense stage waits for the slowest
 *    (straggler), extending that dispatch's service time.
 * With one node and a null network no request is remote and no
 * charge is made: the run is tick-identical to ServingEngine
 * (asserted in tests/cluster/test_cluster_identity.cc).
 */

#ifndef CENTAUR_CLUSTER_ENGINE_HH
#define CENTAUR_CLUSTER_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hh"
#include "cluster/topology.hh"
#include "core/server.hh"

namespace centaur {

/** Per-node accounting of one cluster run. */
struct ClusterNodeStats
{
    std::uint32_t node = 0;
    /** Backend spec of the node's (homogeneous) worker fleet. */
    std::string spec;
    std::uint64_t routed = 0; //!< requests the router sent here
    std::uint64_t served = 0;
    std::uint64_t dispatches = 0;
    double busyUs = 0.0;
    double utilization = 0.0; //!< mean busy fraction across workers
    /** Energy of this node's inferences (joules); 0 when idle. */
    double nodeEnergyJoules = 0.0;
    double fabricWaitUs = 0.0;
    /** One-sided reads this node issued. */
    std::uint64_t remoteReads = 0;
    std::uint64_t remoteReadBytes = 0;
    /** Service extension waiting on remote embeddings (us). */
    double remoteGatherUs = 0.0;
    std::vector<WorkerStats> workers;
    /** Node fabric accounting; empty without contention. */
    std::vector<FabricResourceStats> fabric;
    /**
     * Node hot-row cache tier counters (cachetier/cache_tier.hh);
     * all-zero when the spec enables no cache.
     */
    CacheStats cache;
};

/** Per-shard gather accounting of one cluster run. */
struct ClusterShardStats
{
    std::uint32_t shard = 0;
    std::uint32_t primaryNode = 0;
    std::uint32_t replicas = 1;
    /** Lookups served on the dispatching node (a local replica). */
    std::uint64_t localLookups = 0;
    /** Lookups gathered over the network. */
    std::uint64_t remoteLookups = 0;
};

/** Per-NIC accounting of one cluster run. */
struct ClusterNicStats
{
    std::uint32_t node = 0;
    std::uint64_t txGrants = 0;
    std::uint64_t rxGrants = 0;
    double txBusyUs = 0.0;
    double rxBusyUs = 0.0;
    double txWaitUs = 0.0;
    double rxWaitUs = 0.0;
    double txUtilization = 0.0;
    double rxUtilization = 0.0;
};

/** Aggregate results of one cluster serving run. */
struct ClusterStats
{
    /**
     * Cluster-wide serving aggregate, field-compatible with a
     * single-node ServingEngine run (perWorker is the node-major
     * concatenation; fabric stays empty - per-node fabrics live in
     * perNode[i].fabric).
     */
    ServingStats total;

    /** Canonical cluster spec string (clusterSpecName). */
    std::string cluster;
    ClusterSpec spec;

    std::vector<ClusterNodeStats> perNode;
    std::vector<ClusterShardStats> perShard;
    std::vector<ClusterNicStats> nics;

    /** Network totals (cluster/network.hh). */
    std::uint64_t remoteReads = 0;
    std::uint64_t remoteReadBytes = 0;
    std::uint64_t connectionSetups = 0;
    /** Mean distinct remote owner nodes per remote dispatch. */
    double meanFanout = 0.0;
    /** Total slowest-minus-fastest read gap per fan-out (us). */
    double stragglerWaitUs = 0.0;

    /** Routing decision per request id (not serialized). */
    std::vector<std::uint32_t> routeOf;
};

/**
 * Run the admission/dispatch loop over a built topology. The run is
 * fully deterministic under ServingConfig::seed.
 */
class ClusterEngine
{
  public:
    ClusterEngine(ClusterTopology &topo, const ServingConfig &cfg);

    /** Simulate the configured number of requests. */
    ClusterStats run();

  private:
    ClusterTopology &_topo;
    ServingConfig _cfg;
};

/** Build the topology for @p spec and run the engine. */
ClusterStats runClusterSim(const ClusterSpec &spec,
                           const DlrmConfig &model,
                           const ServingConfig &cfg);

struct Scenario; // core/scenario.hh

/**
 * Scenario-compatible entry point: @p sc.spec must be a cluster
 * spec string ("cluster:..."), the model axis must resolve to one
 * model, and the workload spec is applied over @p base exactly as
 * runServingSim(Scenario) does.
 */
ClusterStats runClusterSim(const Scenario &sc,
                           const ServingConfig &base = ServingConfig{});

/** One (cluster, model, workload, rate) cluster sweep measurement. */
struct ClusterSweepEntry
{
    std::string modelName;
    /** Inner node backend spec (registered, core/backend.hh). */
    std::string spec;
    /** Canonical workload spec string. */
    std::string workload = "uniform";
    /** Canonical cluster spec string. */
    std::string cluster;
    std::uint32_t nodes = 0;
    std::uint32_t workersPerNode = 0;
    std::string shardPolicy;
    std::uint32_t replicas = 0;
    std::string route;
    double arrivalRatePerSec = 0.0;
    std::uint64_t seed = 0;
    ClusterStats stats;
};

/**
 * Run the cluster engine on a single-model cluster scenario across
 * @p rates (a workload spec pinning its own rate replaces them).
 * @p base supplies the remaining ServingConfig knobs; each point
 * gets a deterministic seed, shifted by @p seed_offset.
 */
std::vector<ClusterSweepEntry>
runClusterSweep(const Scenario &sc, const std::vector<double> &rates,
                const ServingConfig &base = ServingConfig{},
                std::uint64_t seed_offset = 0);

/**
 * Deterministic workload seed for one cluster sweep point, salted by
 * @p key - the canonical cluster string for runClusterSweep; suites
 * comparing routing policies salt by workload instead so every
 * cluster of one cell replays the same request stream.
 */
std::uint64_t clusterSweepSeed(const std::string &key,
                               const std::string &model, double rate);

} // namespace centaur

#endif // CENTAUR_CLUSTER_ENGINE_HH
