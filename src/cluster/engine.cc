#include "cluster/engine.hh"

#include <algorithm>

#include "cluster/router.hh"
#include "core/backend.hh"
#include "core/node_scheduler.hh"
#include "core/scenario.hh"
#include "core/system_builder.hh"
#include "sim/log.hh"

namespace centaur {

namespace {

std::uint64_t
nameHash(const std::string &name)
{
    // FNV-1a, stable across platforms.
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * The cluster /ctrl: part wins over a /ctrl: suffix on the inner
 * node spec (same precedence as /cache:); either wins over the
 * caller's ServingConfig.
 */
CtrlConfig
clusterCtrl(const ClusterSpec &spec, const ServingConfig &cfg)
{
    if (spec.ctrl.enabled())
        return spec.ctrl;
    if (const CtrlConfig node_ctrl = parseSpec(spec.nodeSpec).ctrl;
        node_ctrl.enabled())
        return node_ctrl;
    return cfg.ctrl;
}

/** Remote-gather accounting of one node. */
struct RemoteStats
{
    std::uint64_t reads = 0;
    std::uint64_t readBytes = 0;
    double gatherUs = 0.0; //!< service extension waiting on reads
};

/**
 * N nodes: requests are routed up front, dispatches pay the sharded
 * gather, clones run on the next active node, and the autoscaler
 * drains and wakes whole nodes.
 */
class ClusterRun final : public ServingRun
{
  public:
    ClusterRun(ClusterTopology &topo, const ServingConfig &cfg)
        : ServingRun(cfg, clusterCtrl(topo.spec(), cfg),
                     topo.node(0).workers.front()->config(),
                     topo.nodes(), topo.nodes(), /*park_idle=*/true),
          remote(topo.nodes()), shardStats(topo.shardMap().shards()),
          _topo(topo), _map(topo.shardMap()), _net(topo.network()),
          _ownerBytes(topo.nodes(), 0)
    {
        const ClusterSpec &spec = topo.spec();
        const std::uint32_t n_nodes = topo.nodes();
        const DlrmConfig &model = topo.node(0).workers.front()->config();
        for (std::uint32_t n = 0; n < n_nodes; ++n)
            addNode(topo.node(n).workers, topo.node(n).fabric.get());

        // Least-loaded books an estimated per-request service time;
        // probe it on a throwaway system so the main workers' state
        // (and the arrival stream) stay untouched.
        double est_service_us = 0.0;
        if (spec.route == RoutePolicy::LeastLoaded && n_nodes > 1) {
            const auto probe = makeSystem(spec.nodeSpec, model);
            WorkloadGenerator probe_gen(model, cfg.workloadConfig());
            est_service_us =
                usFromTicks(probe->infer(probe_gen.next()).latency());
        }

        // Route every request up front, in id order: decisions
        // depend only on (seed, payload stream), never on event
        // interleaving.
        Router router(spec.route, n_nodes, _map, cfg.seed,
                      est_service_us);
        routeOf.resize(cfg.requests);
        for (std::uint32_t r = 0; r < cfg.requests; ++r) {
            routeOf[r] =
                router.route(r, arrivals.payloads[r], arrivals.us[r]);
            nodes[routeOf[r]].ids.push_back(r);
        }

        for (std::uint32_t s = 0; s < _map.shards(); ++s) {
            shardStats[s].shard = s;
            shardStats[s].primaryNode = _map.primary(s);
            shardStats[s].replicas = _map.replicas();
        }
    }

    std::vector<std::uint32_t> routeOf;
    std::vector<RemoteStats> remote;
    std::vector<ClusterShardStats> shardStats;
    std::uint64_t fanoutTotal = 0;
    std::uint64_t fanoutDispatches = 0;
    double stragglerUs = 0.0;

    /**
     * The earliest-free worker of the next active node. The clone
     * serves from its own node's replicas without a modeled gather -
     * a deliberate simplification: hedge targets are picked for
     * headroom, and charging the NIC twice for one logical request
     * would double-book the fabric the primary already paid.
     */
    HedgePeer
    hedgePeer(NodeScheduler &node, std::size_t) override
    {
        for (std::size_t k = 1; k < nodes.size(); ++k) {
            NodeScheduler &cand = nodes[(node.index + k) % nodes.size()];
            if (isUp(cand))
                return {&cand, cand.earliest()};
        }
        return {};
    }

    void
    scale(int dir, double now_us) override
    {
        if (dir < 0)
            drain(now_us);
        else
            wakeNode(now_us);
    }

    /**
     * Sharded gather: rows on a replica this node holds are free;
     * the rest fan out as one one-sided read per owner node, and the
     * dense stage waits for the slowest. Rows resident in the node's
     * hot-row cache tier never leave the node: they count as local
     * and skip the NIC.
     */
    double
    gatherUs(NodeScheduler &node, double dispatch_us,
             const InferenceBatch &batch,
             const InferenceResult &res) override
    {
        const std::uint32_t n = node.index;
        const std::uint64_t row_bytes =
            node.workers.front()->config().vectorBytes();
        std::fill(_ownerBytes.begin(), _ownerBytes.end(), 0);
        std::uint64_t cached_remote_bytes = 0;
        for (std::size_t tb = 0; tb < batch.indices.size(); ++tb) {
            for (std::uint64_t i = 0; i < batch.indices[tb].size(); ++i) {
                const std::uint32_t shard = _map.shardOf(
                    static_cast<std::uint32_t>(tb), batch.indices[tb][i]);
                if (_map.isOwner(shard, n)) {
                    ++shardStats[shard].localLookups;
                } else if (batch.rowCached(tb, i)) {
                    cached_remote_bytes += row_bytes;
                    ++shardStats[shard].localLookups;
                } else {
                    _ownerBytes[_map.replicaFor(shard, n)] += row_bytes;
                    ++shardStats[shard].remoteLookups;
                }
            }
        }
        if (_net.isNull())
            return 0.0;
        if (cached_remote_bytes && _topo.node(n).cache)
            _topo.node(n).cache->recordSavedTicks(serializationTicks(
                cached_remote_bytes, _net.config().nicGBps));

        Tick done_min = 0;
        Tick done_max = 0;
        std::uint32_t fanout = 0;
        std::uint64_t read_bytes = 0;
        const Tick ready = ticksFromUs(dispatch_us);
        for (std::uint32_t owner = 0; owner < nodes.size(); ++owner) {
            if (_ownerBytes[owner] == 0)
                continue;
            const Tick done = _net.read(n, owner, _ownerBytes[owner], ready);
            done_min = fanout ? std::min(done_min, done) : done;
            done_max = std::max(done_max, done);
            ++fanout;
            read_bytes += _ownerBytes[owner];
        }
        if (fanout == 0)
            return 0.0;
        // The gather overlaps the local IDX+EMB phases; only the
        // tail past them extends the dispatch.
        const double emb_done_us =
            dispatch_us + usFromTicks(res.phaseTicks(Phase::Idx) +
                                      res.phaseTicks(Phase::Emb));
        const double extra_us =
            std::max(0.0, usFromTicks(done_max) - emb_done_us);
        remote[n].gatherUs += extra_us;
        remote[n].reads += fanout;
        remote[n].readBytes += read_bytes;
        fanoutTotal += fanout;
        ++fanoutDispatches;
        if (fanout > 1)
            stragglerUs += usFromTicks(done_max - done_min);
        return extra_us;
    }

  private:
    /** A drained node stops accruing provisioned time on every worker. */
    static bool isUp(const NodeScheduler &node) { return node.up.front(); }

    /**
     * Drain the highest-index active node. It stops accruing
     * provisioned (idle-energy) time, and its not-yet-admitted
     * arrivals go round-robin to the surviving active nodes (each
     * receiver's id list stays sorted via a tail merge, so admission
     * order is unchanged), which are woken; requests already queued
     * on the victim drain out on its own workers.
     */
    void
    drain(double now_us)
    {
        NodeScheduler *victim = nullptr;
        for (NodeScheduler &node : nodes)
            if (isUp(node))
                victim = &node;
        if (!victim)
            return;
        for (std::size_t i = 0; i < victim->workers.size(); ++i)
            victim->powerDown(i, now_us);
        std::vector<NodeScheduler *> receivers;
        for (NodeScheduler &node : nodes)
            if (isUp(node))
                receivers.push_back(&node);
        NodeScheduler &v = *victim;
        if (receivers.empty() || v.next >= v.ids.size())
            return;
        std::vector<std::size_t> old_size;
        for (NodeScheduler *r : receivers)
            old_size.push_back(r->ids.size());
        for (std::size_t k = v.next; k < v.ids.size(); ++k) {
            NodeScheduler &r = *receivers[(k - v.next) % receivers.size()];
            r.ids.push_back(v.ids[k]);
            routeOf[v.ids[k]] = r.index;
        }
        v.ids.resize(v.next);
        for (std::size_t j = 0; j < receivers.size(); ++j) {
            NodeScheduler &r = *receivers[j];
            std::inplace_merge(
                r.ids.begin() + static_cast<std::ptrdiff_t>(r.next),
                r.ids.begin() + static_cast<std::ptrdiff_t>(old_size[j]),
                r.ids.end());
            // A receiver parked on a future arrival (or fully
            // drained) must re-examine its id list; an extra round
            // on a busy receiver is a harmless no-op.
            r.wake(ticksFromUs(now_us));
        }
    }

    /** Re-add the lowest-index drained node; it receives traffic
     *  only from later drain redistributions. */
    void
    wakeNode(double now_us)
    {
        for (NodeScheduler &node : nodes) {
            if (isUp(node))
                continue;
            for (std::size_t i = 0; i < node.workers.size(); ++i)
                node.powerUp(i, now_us);
            return;
        }
    }

    ClusterTopology &_topo;
    const EmbeddingShardMap &_map;
    ClusterNetwork &_net;
    /** Per-owner read bytes of the current dispatch (scratch). */
    std::vector<std::uint64_t> _ownerBytes;
};

} // namespace

ClusterEngine::ClusterEngine(ClusterTopology &topo,
                             const ServingConfig &cfg)
    : _topo(topo), _cfg(cfg)
{
    checkServingConfig(cfg, "cluster engine");
    if (topo.nodes() == 0)
        fatal("cluster engine needs at least one node");
    for (std::uint32_t n = 0; n < topo.nodes(); ++n)
        if (topo.node(n).workers.empty())
            panic("cluster node ", n, " has no workers");
}

ClusterStats
ClusterEngine::run()
{
    ClusterRun run(_topo, _cfg);
    run.simulate();

    ClusterStats out;
    out.cluster = clusterSpecName(_topo.spec());
    out.spec = _topo.spec();
    out.total = run.finish();

    const double last_us = run.acc.lastCompletionUs;
    const Tick horizon = ticksFromUs(last_us);
    for (NodeScheduler &node : run.nodes) {
        ClusterNodeStats pn;
        pn.node = node.index;
        pn.spec = _topo.spec().nodeSpec;
        pn.routed = node.ids.size();
        pn.served = node.served;
        pn.dispatches = node.dispatches;
        pn.nodeEnergyJoules = node.energyJoules;
        pn.remoteReads = run.remote[node.index].reads;
        pn.remoteReadBytes = run.remote[node.index].readBytes;
        pn.remoteGatherUs = run.remote[node.index].gatherUs;
        pn.cache = node.cacheStats();
        for (const WorkerStats &ws : node.stats) {
            pn.busyUs += ws.busyUs;
            pn.fabricWaitUs += ws.fabricWaitUs;
        }
        pn.utilization =
            last_us > 0.0
                ? pn.busyUs /
                      (last_us * static_cast<double>(node.stats.size()))
                : 0.0;
        pn.fabric = node.fabricStats(horizon);
        pn.workers = node.stats;
        out.perNode.push_back(std::move(pn));
    }
    out.perShard = std::move(run.shardStats);

    ClusterNetwork &net = _topo.network();
    for (std::uint32_t n = 0; n < _topo.nodes(); ++n) {
        ClusterNicStats nic;
        nic.node = n;
        nic.txGrants = net.tx(n).grants();
        nic.rxGrants = net.rx(n).grants();
        nic.txBusyUs = usFromTicks(net.tx(n).busyTicks());
        nic.rxBusyUs = usFromTicks(net.rx(n).busyTicks());
        nic.txWaitUs = usFromTicks(net.tx(n).waitTicks());
        nic.rxWaitUs = usFromTicks(net.rx(n).waitTicks());
        nic.txUtilization = net.tx(n).utilization(horizon);
        nic.rxUtilization = net.rx(n).utilization(horizon);
        out.nics.push_back(nic);
    }
    out.remoteReads = net.reads();
    out.remoteReadBytes = net.readBytes();
    out.connectionSetups = net.setups();
    out.meanFanout = run.fanoutDispatches
                         ? static_cast<double>(run.fanoutTotal) /
                               static_cast<double>(run.fanoutDispatches)
                         : 0.0;
    out.stragglerWaitUs = run.stragglerUs;
    out.routeOf = std::move(run.routeOf);
    return out;
}

ClusterStats
runClusterSim(const ClusterSpec &spec, const DlrmConfig &model,
              const ServingConfig &cfg)
{
    ClusterTopology topo(spec, model, cfg);
    return ClusterEngine(topo, cfg).run();
}

ClusterStats
runClusterSim(const Scenario &sc, const ServingConfig &base)
{
    const ClusterSpec spec = parseClusterSpec(sc.spec);
    const std::vector<ModelInfo> models = parseModelSet(sc.model);
    if (models.size() != 1)
        fatal("scenario ", scenarioName(sc), " names ",
              models.size(),
              " models; a cluster run needs exactly one");
    ServingConfig cfg = base;
    cfg.applyWorkload(parseWorkloadSpec(sc.workload));
    return runClusterSim(spec, models.front().config, cfg);
}

std::uint64_t
clusterSweepSeed(const std::string &key, const std::string &model,
                double rate)
{
    return 0xC1A57E2ULL * 1000003ULL + nameHash(key) +
           nameHash(model) * 31ULL +
           static_cast<std::uint64_t>(rate);
}

std::vector<ClusterSweepEntry>
runClusterSweep(const Scenario &sc, const std::vector<double> &rates,
                const ServingConfig &base, std::uint64_t seed_offset)
{
    const ClusterSpec spec = parseClusterSpec(sc.spec);
    const std::vector<ModelInfo> models = parseModelSet(sc.model);
    if (models.size() != 1)
        fatal("scenario ", scenarioName(sc), " names ",
              models.size(),
              " models; a cluster sweep needs exactly one");
    const ModelInfo &model = models.front();
    ServingConfig cfg = base;
    const WorkloadConfig wl = parseWorkloadSpec(sc.workload);
    cfg.applyWorkload(wl);
    // A workload that pins its own arrival rate replaces the swept
    // rate axis (same rule as runServingSweep).
    const std::vector<double> swept_rates =
        wl.arrivalRatePerSec > 0.0
            ? std::vector<double>{wl.arrivalRatePerSec}
            : rates;

    const std::string cluster = clusterSpecName(spec);
    std::vector<ClusterSweepEntry> out;
    out.reserve(swept_rates.size());
    for (double rate : swept_rates) {
        ServingConfig point = cfg;
        point.arrivalRatePerSec = rate;
        point.seed = clusterSweepSeed(cluster, model.name, rate) +
                     seed_offset;
        ClusterSweepEntry entry;
        entry.modelName = model.config.name;
        entry.spec = spec.nodeSpec;
        entry.workload = workloadSpecName(point.workloadConfig());
        entry.cluster = cluster;
        entry.nodes = spec.nodes;
        entry.workersPerNode =
            cfg.workerSpecs.empty()
                ? cfg.workers
                : static_cast<std::uint32_t>(cfg.workerSpecs.size());
        entry.shardPolicy = shardPolicyName(spec.shard);
        entry.replicas = spec.replicas;
        entry.route = routePolicyName(spec.route);
        entry.arrivalRatePerSec = rate;
        entry.seed = point.seed;
        entry.stats = runClusterSim(spec, model.config, point);
        out.push_back(std::move(entry));
    }
    return out;
}

} // namespace centaur
