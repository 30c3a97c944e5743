/**
 * @file
 * Conservation laws of the serving engine, checked on both of its
 * drivers: a single node (ServingEngine) and a 4-node cluster
 * (ClusterEngine). Every run sheds load (queue cap, timeout, bursty
 * arrivals), tracks two SLO classes and serves through a hot-row
 * cache tier; the control plane either hedges or autoscales (on the
 * cluster, scaling drains whole nodes and re-routes their arrivals).
 * Whatever the path, every offered request is accounted exactly
 * once, and every breakdown sums to its total.
 */

#include <gtest/gtest.h>

#include <string>

#include "cluster/engine.hh"
#include "core/server.hh"
#include "dlrm/workload_spec.hh"

namespace centaur {
namespace {

struct ConservationCase
{
    const char *name;
    bool cluster;
    const char *ctrl; //!< /ctrl: part
};

DlrmConfig
smallModel()
{
    DlrmConfig cfg;
    cfg.numTables = 3;
    cfg.lookupsPerTable = 8;
    cfg.rowsPerTable = 50000;
    return cfg;
}

ServingConfig
sheddingConfig()
{
    ServingConfig cfg;
    cfg.applyWorkload(parseWorkloadSpec(
        "zipf:1.1@burst:40000:8/slo:gold:400/slo:bulk:4000"));
    cfg.batchPerRequest = 2;
    cfg.requests = 600;
    cfg.seed = 11;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 4;
    cfg.coalesceWindowUs = 20.0;
    cfg.maxQueueDepth = 8;
    cfg.queueTimeoutUs = 60.0;
    return cfg;
}

class Conservation : public ::testing::TestWithParam<ConservationCase>
{
};

TEST_P(Conservation, EveryRequestIsAccountedOnce)
{
    const ConservationCase &c = GetParam();
    const ServingConfig cfg = sheddingConfig();
    const std::string parts = std::string("/cache:1/") + c.ctrl;

    ServingStats s;
    ClusterStats cluster;
    if (c.cluster) {
        cluster = runClusterSim(
            parseClusterSpec("cluster:4x(cpu)" + parts), smallModel(),
            cfg);
        s = cluster.total;
    } else {
        s = runServingSim("cpu" + parts, smallModel(), cfg);
    }

    // The run must exercise what it checks.
    const std::uint64_t dropped = s.droppedQueueFull + s.droppedTimeout;
    EXPECT_GT(s.droppedQueueFull, 0u);
    EXPECT_GT(s.droppedTimeout, 0u);
    EXPECT_GT(s.cache.hits, 0u);

    EXPECT_EQ(s.offered, cfg.requests);
    EXPECT_EQ(s.offered, s.served + dropped);
    // Bursty arrivals: every drop is classified by its arrival state.
    EXPECT_EQ(s.droppedBurstArrivals + s.droppedIdleArrivals, dropped);
    EXPECT_EQ(s.ctrl.hedgeWins + s.ctrl.hedgeLosses,
              s.ctrl.hedgeDispatches);

    std::uint64_t class_served = 0;
    ASSERT_EQ(s.perClass.size(), 2u);
    for (const SloClassStats &cs : s.perClass)
        class_served += cs.served;
    EXPECT_EQ(class_served, s.served);

    std::uint64_t worker_served = 0;
    std::uint64_t worker_dispatches = 0;
    for (const WorkerStats &ws : s.perWorker) {
        worker_served += ws.served;
        worker_dispatches += ws.dispatches;
    }
    EXPECT_EQ(worker_served, s.served);
    EXPECT_EQ(worker_dispatches, s.dispatches);

    if (std::string(c.ctrl).find("hedge") != std::string::npos) {
        EXPECT_GT(s.ctrl.hedgeDispatches, 0u);
    } else {
        EXPECT_GT(s.ctrl.scaleDowns, 0u);
    }

    if (!c.cluster)
        return;
    std::uint64_t routed = 0;
    std::uint64_t node_served = 0;
    ASSERT_EQ(cluster.perNode.size(), 4u);
    for (const ClusterNodeStats &pn : cluster.perNode) {
        routed += pn.routed;
        node_served += pn.served;
    }
    EXPECT_EQ(routed, s.offered);
    EXPECT_EQ(node_served, s.served);
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, Conservation,
    ::testing::Values(
        ConservationCase{"NodeHedge", false, "ctrl:adaptive:hedge"},
        ConservationCase{"NodeScale", false, "ctrl:fixed:scale:0.5-0.9"},
        ConservationCase{"ClusterHedge", true, "ctrl:adaptive:hedge"},
        ConservationCase{"ClusterScale", true,
                         "ctrl:fixed:scale:0.5-0.9"}),
    [](const ::testing::TestParamInfo<ConservationCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace centaur
