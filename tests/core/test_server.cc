/**
 * @file
 * Unit tests for the inference-serving simulation: one worker, no
 * coalescing - the single-queue, single-server case.
 */

#include <gtest/gtest.h>

#include "core/backend.hh"
#include "core/server.hh"
#include "core/system_builder.hh"

namespace centaur {
namespace {

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
lightLoad()
{
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 200.0; // far below service capacity
    cfg.batchPerRequest = 2;
    cfg.requests = 60;
    cfg.workers = 1;
    cfg.maxCoalescedBatch = 1;
    return cfg;
}

ServingStats
serve(System &sys, const ServingConfig &cfg)
{
    return ServingEngine({&sys}, cfg).run();
}

TEST(Server, ServesAllRequests)
{
    auto sys = makeSystem("cpu+fpga", smallModel());
    const auto stats = serve(*sys, lightLoad());
    EXPECT_EQ(stats.served, 60u);
    EXPECT_GT(stats.meanServiceUs, 0.0);
}

TEST(Server, LightLoadHasNoQueueing)
{
    auto sys = makeSystem("cpu+fpga", smallModel());
    const auto stats = serve(*sys, lightLoad());
    EXPECT_LT(stats.meanQueueUs, stats.meanServiceUs * 0.2);
    EXPECT_LT(stats.utilization, 0.5);
    EXPECT_NEAR(stats.meanLatencyUs,
                stats.meanServiceUs + stats.meanQueueUs, 1.0);
}

TEST(Server, OverloadBuildsQueueAndSaturatesThroughput)
{
    auto sys = makeSystem("cpu", smallModel());
    ServingConfig cfg = lightLoad();
    cfg.arrivalRatePerSec = 1e6; // absurd offered load
    cfg.requests = 80;
    const auto stats = serve(*sys, cfg);
    EXPECT_GT(stats.meanQueueUs, stats.meanServiceUs);
    EXPECT_GT(stats.utilization, 0.95);
    EXPECT_LT(stats.throughputRps, stats.offeredRps);
}

TEST(Server, OverloadRegimeIsFullyCharacterized)
{
    // Offered load far beyond capacity: the server saturates, the
    // queue grows without bound, the SLA collapses, and the reported
    // p99 must be a real measured value even though the latencies
    // blow past the histogram range.
    auto sys = makeSystem("cpu", smallModel());
    ServingConfig cfg = lightLoad();
    cfg.arrivalRatePerSec = 1e6;
    cfg.requests = 2000;
    cfg.slaTargetUs = 500.0;
    const auto stats = serve(*sys, cfg);

    EXPECT_GT(stats.utilization, 0.99);
    EXPECT_GT(stats.meanQueueUs, 10.0 * stats.meanServiceUs);
    EXPECT_LT(stats.slaHitRate, 0.1);
    EXPECT_LT(stats.throughputRps, stats.offeredRps * 0.05);

    // Tail-percentile clamping regression: with queueing delays past
    // the 100 ms histogram cap, p99 must come from the true maximum
    // sample, not sit pinned at the cap.
    EXPECT_GT(stats.latencyOverflow, 0u);
    EXPECT_GT(stats.p99Us, 100000.0);
    EXPECT_DOUBLE_EQ(stats.p99Us, stats.maxLatencyUs);
}

TEST(Server, TailIsAtLeastMedian)
{
    auto sys = makeSystem("cpu+fpga", smallModel());
    ServingConfig cfg = lightLoad();
    cfg.arrivalRatePerSec = 5000.0;
    cfg.requests = 150;
    const auto stats = serve(*sys, cfg);
    EXPECT_GE(stats.p95Us, stats.p50Us);
    EXPECT_GE(stats.p99Us, stats.p95Us);
}

TEST(Server, SlaHitRateCountsCorrectly)
{
    ServingConfig strict = lightLoad();
    strict.slaTargetUs = 0.001; // impossible
    auto sys = makeSystem("cpu+fpga", smallModel());
    EXPECT_DOUBLE_EQ(serve(*sys, strict).slaHitRate, 0.0);

    ServingConfig loose = lightLoad();
    loose.slaTargetUs = 1e9; // trivial
    auto sys2 = makeSystem("cpu+fpga", smallModel());
    EXPECT_DOUBLE_EQ(serve(*sys2, loose).slaHitRate, 1.0);
}

TEST(Server, EnergyAccumulatesAcrossRequests)
{
    auto sys = makeSystem("cpu+fpga", smallModel());
    const auto stats = serve(*sys, lightLoad());
    EXPECT_GT(stats.energyJoules, 0.0);
}

TEST(Server, DeterministicUnderSeed)
{
    auto a = makeSystem("cpu+fpga", smallModel());
    auto b = makeSystem("cpu+fpga", smallModel());
    const auto sa = serve(*a, lightLoad());
    const auto sb = serve(*b, lightLoad());
    EXPECT_DOUBLE_EQ(sa.meanLatencyUs, sb.meanLatencyUs);
    EXPECT_DOUBLE_EQ(sa.p99Us, sb.p99Us);
}

TEST(Server, CentaurSustainsHigherLoadThanCpuOnly)
{
    // The end-to-end speedup translates into serving headroom.
    ServingConfig cfg = lightLoad();
    cfg.arrivalRatePerSec = 8000.0;
    cfg.requests = 120;
    auto cpu = makeSystem("cpu", smallModel());
    auto cen = makeSystem("cpu+fpga", smallModel());
    const auto sc = serve(*cpu, cfg);
    const auto sf = serve(*cen, cfg);
    EXPECT_LT(sf.p99Us, sc.p99Us);
    EXPECT_LT(sf.utilization, sc.utilization);
}

TEST(ServerDeath, RejectsBadConfig)
{
    auto sys = makeSystem("cpu+fpga", smallModel());
    ServingConfig bad = lightLoad();
    bad.arrivalRatePerSec = 0.0;
    EXPECT_DEATH(ServingEngine({sys.get()}, bad), "arrival");
    ServingConfig none = lightLoad();
    none.requests = 0;
    EXPECT_DEATH(ServingEngine({sys.get()}, none), "request");
}

} // namespace
} // namespace centaur
