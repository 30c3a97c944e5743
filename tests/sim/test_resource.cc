/**
 * @file
 * ResourceClock unit tests: single-lane busy-until arithmetic (the
 * exact pattern the DRAM bus and link pipes were refactored onto),
 * deterministic gang scheduling on multi-lane pools, lane clamping,
 * and the utilization/wait accounting the fabric reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/resource.hh"

namespace centaur {
namespace {

TEST(ResourceClock, SingleLaneBusyUntilArithmetic)
{
    ResourceClock clk("bus");
    EXPECT_EQ(clk.lanes(), 1u);

    // Free resource: starts at ready.
    auto g1 = clk.acquire(100, 50);
    EXPECT_EQ(g1.start, 100u);
    EXPECT_EQ(g1.end, 150u);
    EXPECT_EQ(g1.wait(), 0u);

    // Ready before the resource frees: queued FIFO behind g1.
    auto g2 = clk.acquire(120, 30);
    EXPECT_EQ(g2.start, 150u);
    EXPECT_EQ(g2.end, 180u);
    EXPECT_EQ(g2.wait(), 30u);

    // Ready after the resource frees: no wait, idle gap allowed.
    auto g3 = clk.acquire(500, 10);
    EXPECT_EQ(g3.start, 500u);
    EXPECT_EQ(g3.wait(), 0u);

    EXPECT_EQ(clk.grants(), 3u);
    EXPECT_EQ(clk.busyTicks(), 90u);
    EXPECT_EQ(clk.waitTicks(), 30u);
    EXPECT_EQ(clk.horizon(), 510u);
    EXPECT_EQ(clk.busyUntil(), 510u);
}

TEST(ResourceClock, ZeroDurationGrantDoesNotOccupy)
{
    ResourceClock clk("bus");
    clk.acquire(0, 100);
    const auto g = clk.acquire(40, 0);
    EXPECT_EQ(g.start, 100u);
    EXPECT_EQ(g.end, 100u);
    EXPECT_EQ(clk.busyUntil(), 100u);
}

TEST(ResourceClock, MultiLanePoolRunsConcurrently)
{
    ResourceClock pool("cores", 4);
    EXPECT_EQ(pool.lanes(), 4u);

    // Four single-lane requests at the same ready tick all start
    // immediately (one per lane); the fifth queues behind the
    // earliest-finishing lane.
    for (int i = 0; i < 4; ++i) {
        const auto g = pool.acquire(10, 100 + 10 * i);
        EXPECT_EQ(g.start, 10u) << i;
    }
    const auto g5 = pool.acquire(10, 5);
    EXPECT_EQ(g5.start, 110u); // behind the duration-100 lane
    EXPECT_EQ(g5.wait(), 100u);
}

TEST(ResourceClock, GangWaitsForAllItsLanes)
{
    ResourceClock pool("cores", 4);
    pool.acquire(0, 100);    // lane 0 busy till 100
    pool.acquire(0, 200);    // lane 1 busy till 200

    // A 3-lane gang needs lanes {2, 3, 0}: earliest start is when
    // lane 0 frees at 100, even though two lanes were idle.
    const auto g = pool.acquire(0, 50, 3);
    EXPECT_EQ(g.start, 100u);
    EXPECT_EQ(g.end, 150u);

    // The gang occupied 3 lanes; only the duration-200 lane is
    // still free earlier than the gang's end.
    const auto g2 = pool.acquire(0, 1, 4);
    EXPECT_EQ(g2.start, 200u);
}

TEST(ResourceClock, OversizedGangClampsToTheFullResource)
{
    ResourceClock pool("cores", 2);
    const auto g = pool.acquire(0, 10, 64);
    EXPECT_EQ(g.start, 0u);
    // Both lanes taken: the next request queues.
    EXPECT_EQ(pool.acquire(0, 1).start, 10u);
    EXPECT_EQ(pool.busyTicks(), 2u * 10u + 1u);
}

TEST(ResourceClock, UtilizationAgainstOwnAndExternalHorizon)
{
    ResourceClock clk("bus");
    clk.acquire(0, 50);
    clk.acquire(50, 50);
    EXPECT_DOUBLE_EQ(clk.utilization(), 1.0);       // busy 100 / 100
    EXPECT_DOUBLE_EQ(clk.utilization(200), 0.5);    // wall clock 200
    EXPECT_DOUBLE_EQ(clk.utilization(400), 0.25);

    ResourceClock idle("idle");
    EXPECT_DOUBLE_EQ(idle.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(idle.utilization(100), 0.0);
}

TEST(ResourceClock, MeanWaitAndReset)
{
    ResourceClock clk("bus");
    clk.acquire(0, kTicksPerUs);          // wait 0
    clk.acquire(0, kTicksPerUs);          // wait 1 us
    EXPECT_DOUBLE_EQ(clk.meanWaitUs(), 0.5);

    clk.reset();
    EXPECT_EQ(clk.grants(), 0u);
    EXPECT_EQ(clk.busyTicks(), 0u);
    EXPECT_EQ(clk.waitTicks(), 0u);
    EXPECT_EQ(clk.horizon(), 0u);
    EXPECT_EQ(clk.busyUntil(), 0u);
    EXPECT_DOUBLE_EQ(clk.meanWaitUs(), 0.0);
}

/**
 * The gang rule as first written: stable-sort the lane indices by
 * busy-until and take the first @p want. ResourceClock must pick the
 * same lanes without the sort or its scratch vectors.
 */
ResourceClock::Grant
sortedGangGrant(std::vector<Tick> &lanes, Tick ready, Tick duration,
                std::uint32_t want)
{
    std::vector<std::uint32_t> order(lanes.size());
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return lanes[a] < lanes[b];
                     });
    ResourceClock::Grant g;
    g.ready = ready;
    g.start = ready;
    for (std::uint32_t i = 0; i < want; ++i)
        g.start = std::max(g.start, lanes[order[i]]);
    g.end = g.start + duration;
    for (std::uint32_t i = 0; i < want; ++i)
        lanes[order[i]] = g.end;
    return g;
}

TEST(ResourceClock, GangGrantsMatchStableSortRule)
{
    // Ready times and durations on a coarse grid make equal busy-until
    // values, and so index tie-breaks, common.
    for (std::uint32_t lanes = 1; lanes <= 16; ++lanes) {
        for (std::uint32_t want = 1; want <= lanes + 2; ++want) {
            ResourceClock clk("pool", lanes);
            std::vector<Tick> ref(lanes, 0);
            Rng rng(lanes * 100 + want);
            Tick now = 0;
            for (int op = 0; op < 300; ++op) {
                now += rng.nextBelow(3) * 10;
                const Tick duration = rng.nextBelow(4) * 10;
                // Mix in single-lane grants to scatter the lane state.
                const std::uint32_t ask =
                    rng.nextBelow(3) == 0 ? 1 : want;
                const ResourceClock::Grant a =
                    clk.acquire(now, duration, ask);
                const ResourceClock::Grant b = sortedGangGrant(
                    ref, now, duration, std::min(ask, lanes));
                ASSERT_EQ(a.start, b.start)
                    << lanes << " lanes, want " << ask << ", op " << op;
                ASSERT_EQ(a.end, b.end);
                ASSERT_EQ(clk.snapshot().laneBusyUntil, ref)
                    << lanes << " lanes, want " << ask << ", op " << op;
            }
        }
    }
}

TEST(ResourceClockDeath, RejectsZeroLanes)
{
    EXPECT_DEATH(ResourceClock("bad", 0), "lane");
}

} // namespace
} // namespace centaur
