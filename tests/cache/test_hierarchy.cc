/**
 * @file
 * Unit tests for the L1/L2/LLC hierarchy model.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

TEST(Hierarchy, BroadwellGeometryMatchesTheEvaluationCpu)
{
    const auto cfg = broadwellHierarchyConfig();
    EXPECT_EQ(cfg.l1.sizeBytes, 32 * kKiB);
    EXPECT_EQ(cfg.l2.sizeBytes, 256 * kKiB);
    EXPECT_EQ(cfg.llc.sizeBytes, 35 * kMiB);
    EXPECT_EQ(cfg.llc.ways, 20u);
}

TEST(Hierarchy, LlcTagStoreTakesOneHostLinePerSet)
{
    // 28672 LLC sets of 20 ways: 16-bit tags fit a set in 64 B, where
    // 32-bit tags take 128 B. The 8-way L1 and L2 keep 32-bit tags in
    // 64 B per set. A tag over 16 bits widens the LLC to 128 B per set.
    CacheHierarchy h(broadwellHierarchyConfig());
    EXPECT_EQ(h.llc().storeBytes(), 1835008u);
    EXPECT_EQ(h.l1().storeBytes(), 64u * 64);
    EXPECT_EQ(h.l2().storeBytes(), 512u * 64);
    const Addr firstWideTag = (Addr{28672} << 16) * 64;
    h.access(firstWideTag - 64);
    EXPECT_EQ(h.llc().storeBytes(), 1835008u);
    h.access(firstWideTag);
    EXPECT_EQ(h.llc().storeBytes(), 3670016u);
    EXPECT_EQ(h.l1().storeBytes(), 64u * 64);
    EXPECT_EQ(h.l2().storeBytes(), 512u * 64);
}

TEST(Hierarchy, ColdAccessGoesToMemory)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    const auto r = h.access(0x1000);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_GT(r.latency, ticksFromNs(20.0));
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0x1000);
    const auto r = h.access(0x1000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_LT(r.latency, ticksFromNs(3.0));
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    // Evict line 0 from L1 (32 KB) without evicting from L2 (256 KB).
    for (Addr line = 1; line <= 1024; ++line)
        h.access(line * 64);
    const auto r = h.access(0);
    EXPECT_EQ(r.level, HitLevel::L2);
}

TEST(Hierarchy, L2EvictionFallsBackToLlc)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    for (Addr line = 1; line <= 2 * 4096; ++line)
        h.access(line * 64);
    const auto r = h.access(0);
    EXPECT_EQ(r.level, HitLevel::Llc);
}

TEST(Hierarchy, HitRefillsUpperLevels)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    for (Addr line = 1; line <= 1024; ++line)
        h.access(line * 64);
    h.access(0); // L2 hit, refills L1
    const auto r = h.access(0);
    EXPECT_EQ(r.level, HitLevel::L1);
}

/** Broadwell geometry with @p policy at every level. */
HierarchyConfig
broadwellWith(ReplacementPolicy policy)
{
    HierarchyConfig cfg = broadwellHierarchyConfig();
    cfg.l1.policy = cfg.l2.policy = cfg.llc.policy = policy;
    return cfg;
}

// Every level an access passes on its way down installs the line, so
// a hit at any depth leaves it resident at every level above.
TEST(Hierarchy, DeepHitsLeaveTheLineResidentAbove)
{
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
          ReplacementPolicy::Random}) {
        SCOPED_TRACE(static_cast<int>(policy));
        CacheHierarchy h(broadwellWith(policy));

        // Memory: cold line 0 lands in all three levels.
        ASSERT_EQ(h.access(0).level, HitLevel::Memory);
        EXPECT_TRUE(h.l1().probe(0));
        EXPECT_TRUE(h.l2().probe(0));
        EXPECT_TRUE(h.llc().probe(0));

        // L2 hit: push line 0 out of L1 with lines of its L1 set
        // (every 64th line) that fall in other L2 sets.
        for (Addr k = 1; h.l1().probe(0); ++k) {
            ASSERT_LT(k, 512u);
            if (k % 8 != 0)
                h.access(k * 64 * 64);
        }
        ASSERT_TRUE(h.l2().probe(0));
        EXPECT_EQ(h.access(0).level, HitLevel::L2);
        EXPECT_TRUE(h.l1().probe(0));

        // LLC hit: push it out of L1 and L2 with lines of both sets
        // (every 512th line), which the 28672-set LLC spreads out.
        for (Addr k = 1; h.l1().probe(0) || h.l2().probe(0); ++k) {
            ASSERT_LT(k, 56u);
            h.access(k * 512 * 64);
        }
        ASSERT_TRUE(h.llc().probe(0));
        EXPECT_EQ(h.access(0).level, HitLevel::Llc);
        EXPECT_TRUE(h.l1().probe(0));
        EXPECT_TRUE(h.l2().probe(0));
    }
}

TEST(Hierarchy, LatencyIncreasesWithDepth)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    const auto mem = h.access(0);   // memory
    const auto l1 = h.access(0);    // L1
    EXPECT_GT(mem.latency, l1.latency);
}

TEST(Hierarchy, WarmMakesLinesL1Resident)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.warm(0x2000);
    EXPECT_EQ(h.access(0x2000).level, HitLevel::L1);
    EXPECT_EQ(h.l1().accesses(), 1u);
}

TEST(Hierarchy, WarmRangeCoversAllLines)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.warmRange(0, 64 * 16);
    for (Addr line = 0; line < 16; ++line)
        EXPECT_EQ(h.access(line * 64).level, HitLevel::L1);
}

TEST(Hierarchy, WarmRangeMatchesPerLineWarm)
{
    // warmRange fills one level after another; warm() fills one line
    // after another. At Table I's smallest and largest MLP weight sets
    // L1 and L2 sets overflow their ways and LLC sets do not.
    const HierarchyConfig cfg = broadwellHierarchyConfig();
    for (const std::uint64_t bytes :
         {static_cast<std::uint64_t>(57.4 * kKiB),
          static_cast<std::uint64_t>(568.5 * kKiB)}) {
        SCOPED_TRACE(bytes);
        const Addr base = (Addr{3} << 30) + 24;
        CacheHierarchy ranged(cfg);
        CacheHierarchy lined(cfg);
        ranged.warmRange(base, bytes);
        for (Addr line = base / 64; line <= (base + bytes - 1) / 64; ++line)
            lined.warm(line * 64);
        // The weights and as much again on either side.
        Rng rng(bytes);
        for (int op = 0; op < 200000; ++op) {
            const Addr addr = base - bytes + rng.nextBelow(3 * bytes);
            ASSERT_EQ(ranged.access(addr).level, lined.access(addr).level)
                << "op " << op;
        }
    }
}

TEST(Hierarchy, AccessRangeReportsDeepestLevel)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.warmRange(0, 128);
    // First two lines warm, third cold -> worst level is Memory.
    const auto r = h.accessRange(0, 192);
    EXPECT_EQ(r.level, HitLevel::Memory);
}

TEST(Hierarchy, FlushForcesMisses)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    h.flush();
    EXPECT_EQ(h.access(0).level, HitLevel::Memory);
}

TEST(Hierarchy, ResetStatsZeroesCounters)
{
    CacheHierarchy h(broadwellHierarchyConfig());
    h.access(0);
    h.resetStats();
    EXPECT_EQ(h.llc().accesses(), 0u);
    EXPECT_EQ(h.l1().accesses(), 0u);
}

TEST(Hierarchy, MlpWeightsStayResident)
{
    // A 57 KB weight set (Table I) comfortably lives in L2/LLC: the
    // mechanism behind the paper's <20% MLP miss rates.
    CacheHierarchy h(broadwellHierarchyConfig());
    const std::uint64_t weights = 57 * kKiB;
    h.warmRange(0, weights);
    h.llc().resetStats();
    h.accessRange(0, weights);
    EXPECT_DOUBLE_EQ(h.llc().missRate(), 0.0);
}

} // namespace
} // namespace centaur
