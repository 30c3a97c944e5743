#include "core/server.hh"

#include <numeric>

#include "core/backend.hh"
#include "core/node_scheduler.hh"
#include "core/scenario.hh"
#include "core/system_builder.hh"
#include "sim/log.hh"

namespace centaur {

void
ServingConfig::applyWorkload(const WorkloadConfig &wl)
{
    dist = wl.dist;
    zipfSkew = wl.zipfSkew;
    tracePath = wl.tracePath;
    arrival = wl.arrival;
    burstFactor = wl.burstFactor;
    diurnalAmplitude = wl.diurnalAmplitude;
    diurnalPeriodSec = wl.diurnalPeriodSec;
    sloClasses = wl.sloClasses;
    if (wl.arrivalRatePerSec > 0.0)
        arrivalRatePerSec = wl.arrivalRatePerSec;
}

WorkloadConfig
ServingConfig::workloadConfig() const
{
    WorkloadConfig wl;
    wl.batch = batchPerRequest;
    wl.dist = dist;
    wl.zipfSkew = zipfSkew;
    wl.seed = seed;
    wl.tracePath = tracePath;
    wl.arrival = arrival;
    wl.arrivalRatePerSec = arrivalRatePerSec;
    wl.burstFactor = burstFactor;
    wl.diurnalAmplitude = diurnalAmplitude;
    wl.diurnalPeriodSec = diurnalPeriodSec;
    wl.sloClasses = sloClasses;
    return wl;
}

namespace {

/**
 * One node: a straggler's clone runs on another worker of the node,
 * and the autoscaler drains and re-adds single workers.
 */
class NodeRun final : public ServingRun
{
  public:
    NodeRun(const ServingConfig &cfg, const std::vector<System *> &workers,
            Fabric *fabric)
        : ServingRun(cfg, cfg.ctrl, workers.front()->config(), 1,
                     static_cast<std::uint32_t>(workers.size()),
                     /*park_idle=*/false)
    {
        NodeScheduler &node = addNode(workers, fabric);
        node.ids.resize(cfg.requests);
        std::iota(node.ids.begin(), node.ids.end(), 0u);
    }

    /** The earliest-free other active worker, lowest index on ties. */
    HedgePeer
    hedgePeer(NodeScheduler &node, std::size_t w) override
    {
        HedgePeer peer;
        for (std::size_t i = 0; i < node.workers.size(); ++i) {
            if (i == w || !node.active[i])
                continue;
            if (!peer.node || node.freeUs[i] < node.freeUs[peer.worker])
                peer = {&node, i};
        }
        return peer;
    }

    /**
     * Drain the highest-index active worker (the scaler keeps at
     * least one), or re-add the lowest-index drained one.
     */
    void
    scale(int dir, double now_us) override
    {
        NodeScheduler &node = nodes.front();
        if (dir < 0) {
            for (std::size_t i = node.workers.size(); i-- > 0;) {
                if (node.active[i]) {
                    node.active[i] = 0;
                    node.powerDown(i, now_us);
                    return;
                }
            }
        } else {
            for (std::size_t i = 0; i < node.workers.size(); ++i) {
                if (!node.active[i]) {
                    node.active[i] = 1;
                    node.powerUp(i, now_us);
                    return;
                }
            }
        }
    }
};

} // namespace

ServingEngine::ServingEngine(std::vector<System *> workers,
                             const ServingConfig &cfg, Fabric *fabric)
    : _workers(std::move(workers)), _cfg(cfg), _fabric(fabric)
{
    checkServingConfig(cfg, "serving engine");
    if (_workers.empty())
        fatal("serving engine needs at least one worker");
    for (System *w : _workers)
        if (w == nullptr)
            panic("serving engine got a null worker");
}

ServingStats
ServingEngine::run()
{
    NodeRun run(_cfg, _workers, _fabric);
    run.simulate();
    ServingStats out = run.finish();
    out.fabric = run.nodes.front().fabricStats(
        ticksFromUs(run.acc.lastCompletionUs));
    return out;
}

std::vector<std::unique_ptr<System>>
makeWorkers(const std::string &default_spec, const DlrmConfig &model,
            const ServingConfig &cfg, Fabric *fabric, CacheTier *cache)
{
    SystemBuilder builder;
    builder.model(model).fabric(fabric).cacheTier(cache);
    std::vector<std::unique_ptr<System>> out;
    if (!cfg.workerSpecs.empty()) {
        out.reserve(cfg.workerSpecs.size());
        for (const std::string &spec : cfg.workerSpecs)
            out.push_back(builder.spec(spec).build());
        return out;
    }
    if (cfg.workers == 0)
        fatal("serving engine needs at least one worker");
    // Every worker shares one parsed spec and one builder.
    builder.spec(default_spec);
    out.reserve(cfg.workers);
    for (std::uint32_t i = 0; i < cfg.workers; ++i)
        out.push_back(builder.build());
    return out;
}

ServingStats
runServingSim(const std::string &default_spec, const DlrmConfig &model,
              const ServingConfig &cfg)
{
    Fabric fabric(cfg.fabricCfg);
    Fabric *node = cfg.contend ? &fabric : nullptr;
    // A `/cache:` part on the default spec provisions one node-level
    // tier shared by the whole fleet (heterogeneous workerSpecs with
    // their own cache parts still own private tiers); a `/ctrl:`
    // part selects the fleet's control-plane policy.
    const SystemSpec parsed = parseSpec(default_spec);
    std::unique_ptr<CacheTier> tier;
    if (parsed.cache.enabled())
        tier = std::make_unique<CacheTier>(parsed.cache,
                                           model.vectorBytes());
    ServingConfig run_cfg = cfg;
    if (parsed.ctrl.enabled())
        run_cfg.ctrl = parsed.ctrl;
    auto owned = makeWorkers(default_spec, model, run_cfg, node,
                             tier.get());
    std::vector<System *> workers;
    workers.reserve(owned.size());
    for (auto &w : owned)
        workers.push_back(w.get());
    return ServingEngine(std::move(workers), run_cfg, node).run();
}

ServingStats
runServingSim(const Scenario &sc, const ServingConfig &base)
{
    const ResolvedScenario rs = resolveScenario(sc);
    if (rs.models.size() != 1)
        fatal("scenario ", scenarioName(sc), " names ",
              rs.models.size(),
              " models; a serving run needs exactly one");
    ServingConfig cfg = base;
    cfg.applyWorkload(rs.workload);
    return runServingSim(sc.spec, rs.models.front().config, cfg);
}

} // namespace centaur
