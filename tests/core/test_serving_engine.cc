/**
 * @file
 * Unit tests for the batch-coalescing multi-worker serving engine.
 */

#include <gtest/gtest.h>

#include "core/analysis.hh"
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

/** Offered load far beyond any worker count used in these tests. */
ServingConfig
overload()
{
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 1e6;
    cfg.batchPerRequest = 2;
    cfg.requests = 300;
    cfg.seed = 9;
    return cfg;
}

ServingStats
runPoint(const ServingConfig &cfg)
{
    return runServingSim("cpu+fpga", smallModel(), cfg);
}

TEST(ServingEngine, WorkerScalingIncreasesSustainedThroughput)
{
    ServingConfig cfg = overload();
    cfg.workers = 1;
    const double t1 = runPoint(cfg).throughputRps;
    cfg.workers = 2;
    const double t2 = runPoint(cfg).throughputRps;
    cfg.workers = 4;
    const double t4 = runPoint(cfg).throughputRps;
    EXPECT_GT(t2, t1 * 1.5);
    EXPECT_GT(t4, t2 * 1.5);
}

TEST(ServingEngine, CoalescingAmortizesPerDispatchCost)
{
    ServingConfig cfg = overload();
    cfg.workers = 1;
    cfg.maxCoalescedBatch = 1;
    const ServingStats solo = runPoint(cfg);
    cfg.maxCoalescedBatch = 8;
    const ServingStats coalesced = runPoint(cfg);

    EXPECT_DOUBLE_EQ(solo.meanCoalescedRequests, 1.0);
    EXPECT_GT(coalesced.meanCoalescedRequests, 4.0);
    EXPECT_LT(coalesced.dispatches, solo.dispatches);
    // Amortized MLP/FI cost -> more requests retired per unit time.
    EXPECT_GT(coalesced.throughputRps, solo.throughputRps);
}

TEST(ServingEngine, DeterministicUnderFixedSeed)
{
    ServingConfig cfg = overload();
    cfg.workers = 3;
    cfg.maxCoalescedBatch = 4;
    const ServingStats a = runPoint(cfg);
    const ServingStats b = runPoint(cfg);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_DOUBLE_EQ(a.meanLatencyUs, b.meanLatencyUs);
    EXPECT_DOUBLE_EQ(a.p99Us, b.p99Us);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
}

TEST(ServingEngine, PerWorkerStatsAccountForEverything)
{
    ServingConfig cfg = overload();
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 4;
    const ServingStats s = runPoint(cfg);

    ASSERT_EQ(s.perWorker.size(), 2u);
    std::uint64_t served = 0, dispatches = 0;
    double energy_joules = 0.0;
    for (const WorkerStats &w : s.perWorker) {
        EXPECT_GT(w.busyUs, 0.0);
        EXPECT_GT(w.utilization, 0.0);
        EXPECT_LE(w.utilization, 1.0);
        served += w.served;
        dispatches += w.dispatches;
        energy_joules += w.energyJoules;
    }
    EXPECT_EQ(served, s.served);
    EXPECT_EQ(dispatches, s.dispatches);
    EXPECT_NEAR(energy_joules, s.energyJoules, 1e-9);
    EXPECT_EQ(s.served, s.offered);
}

TEST(ServingEngine, QueueDepthGuardShedsUnderOverload)
{
    ServingConfig cfg = overload();
    cfg.maxQueueDepth = 8;
    const ServingStats s = runPoint(cfg);
    EXPECT_GT(s.droppedQueueFull, 0u);
    EXPECT_EQ(s.served + s.droppedQueueFull + s.droppedTimeout,
              s.offered);
    EXPECT_GT(s.dropRate(), 0.5);
    // The guard bounds queueing delay for what is served.
    EXPECT_LT(s.meanQueueUs, 9.0 * s.meanServiceUs);
}

TEST(ServingEngine, QueueTimeoutShedsStaleRequests)
{
    ServingConfig cfg = overload();
    cfg.queueTimeoutUs = 200.0;
    const ServingStats s = runPoint(cfg);
    EXPECT_GT(s.droppedTimeout, 0u);
    EXPECT_EQ(s.served + s.droppedQueueFull + s.droppedTimeout,
              s.offered);
    // Nothing served waited longer than the timeout.
    EXPECT_LE(s.meanQueueUs, cfg.queueTimeoutUs);
}

TEST(ServingEngine, BatchingWindowCoalescesModerateLoad)
{
    ServingConfig cfg;
    cfg.arrivalRatePerSec = 20000.0;
    cfg.batchPerRequest = 2;
    cfg.requests = 200;
    cfg.seed = 5;
    cfg.workers = 2;
    cfg.maxCoalescedBatch = 8;

    cfg.coalesceWindowUs = 0.0;
    const ServingStats immediate = runPoint(cfg);
    cfg.coalesceWindowUs = 400.0;
    const ServingStats windowed = runPoint(cfg);

    // Without pressure, immediate dispatch barely coalesces; the
    // window gathers companions at the cost of queueing delay.
    EXPECT_GT(windowed.meanCoalescedRequests,
              immediate.meanCoalescedRequests);
    EXPECT_GT(windowed.meanQueueUs, immediate.meanQueueUs);
    EXPECT_EQ(windowed.served, windowed.offered);
}

TEST(ServingEngine, AnalyzerClassifiesLoadRegimes)
{
    ServingConfig hot = overload();
    const ServingVerdict v_hot = analyzeServing(runPoint(hot), hot);
    EXPECT_EQ(v_hot.regime, ServingRegime::Overloaded);

    ServingConfig cold;
    cold.arrivalRatePerSec = 500.0;
    cold.batchPerRequest = 2;
    cold.requests = 100;
    cold.workers = 4;
    const ServingVerdict v_cold =
        analyzeServing(runPoint(cold), cold);
    EXPECT_EQ(v_cold.regime, ServingRegime::Underutilized);
}

TEST(ServingEngineDeath, RejectsBadConfig)
{
    ServingConfig cfg = overload();
    EXPECT_DEATH(ServingEngine(std::vector<System *>{}, cfg),
                 "worker");
    auto sys = makeSystem("cpu+fpga", smallModel());
    ServingConfig zero = overload();
    zero.maxCoalescedBatch = 0;
    EXPECT_DEATH(ServingEngine({sys.get()}, zero), "coalesced");
    // An admission cap below the coalescing limit would starve
    // forming batches during the window.
    ServingConfig starved = overload();
    starved.maxCoalescedBatch = 8;
    starved.maxQueueDepth = 4;
    EXPECT_DEATH(ServingEngine({sys.get()}, starved),
                 "maxQueueDepth");
}

} // namespace
} // namespace centaur
