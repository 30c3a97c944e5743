/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

CacheConfig
smallCache(ReplacementPolicy policy = ReplacementPolicy::Lru)
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheConfig{"test", 512, 2, 64, 1.0, policy};
}

TEST(Cache, ColdAccessMisses)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0).hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.accesses(), 1u);
}

TEST(Cache, SecondAccessHits)
{
    Cache c(smallCache());
    c.access(0);
    EXPECT_TRUE(c.access(0).hit);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, RebuiltCacheStartsEmpty)
{
    // The new cache may be handed the tag store of the one destroyed.
    {
        Cache used(smallCache());
        for (Addr line = 0; line < 8; ++line)
            used.access(line * 64);
    }
    Cache c(smallCache());
    for (Addr line = 0; line < 8; ++line) {
        EXPECT_FALSE(c.probe(line * 64));
        EXPECT_FALSE(c.access(line * 64).evictedValid);
    }
    EXPECT_EQ(c.misses(), 8u);
}

TEST(Cache, CachesBuiltOnManyThreadsStartEmpty)
{
    // Concurrent builds and teardowns share the pool of tag stores.
    std::vector<std::thread> threads;
    std::vector<int> dirty(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t, &dirty] {
            for (int round = 0; round < 200; ++round) {
                Cache c(smallCache());
                for (Addr line = 0; line < 8; ++line)
                    dirty[t] += c.access(line * 64).evictedValid;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(dirty, std::vector<int>(4, 0));
}

TEST(Cache, SameLineDifferentBytesHit)
{
    Cache c(smallCache());
    c.access(128);
    EXPECT_TRUE(c.access(128 + 63).hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache());
    // Set 0 holds lines 0, 4, 8, ... (4 sets); two ways.
    const Addr a = 0 * 64;
    const Addr b = 4 * 64;
    const Addr d = 8 * 64;
    c.access(a);
    c.access(b);
    c.access(a);      // a most recent
    const auto r = c.access(d); // evicts b
    EXPECT_TRUE(r.evictedValid);
    EXPECT_EQ(r.evictedAddr, b);
    EXPECT_TRUE(c.access(a).hit);
    EXPECT_FALSE(c.access(b).hit);
}

TEST(Cache, FifoEvictsOldestInsertion)
{
    Cache c(smallCache(ReplacementPolicy::Fifo));
    const Addr a = 0 * 64;
    const Addr b = 4 * 64;
    const Addr d = 8 * 64;
    c.access(a);
    c.access(b);
    c.access(a); // FIFO ignores recency
    const auto r = c.access(d);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_EQ(r.evictedAddr, a);
}

TEST(Cache, RandomPolicyEvictsSomething)
{
    Cache c(smallCache(ReplacementPolicy::Random));
    c.access(0 * 64);
    c.access(4 * 64);
    const auto r = c.access(8 * 64);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_TRUE(r.evictedAddr == 0 * 64 || r.evictedAddr == 4 * 64);
}

TEST(Cache, ProbeDoesNotAllocateOrCount)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.accesses(), 0u);
    c.access(0);
    EXPECT_TRUE(c.probe(0));
    EXPECT_EQ(c.accesses(), 1u);
}

TEST(Cache, FillInstallsWithoutCountingAccess)
{
    Cache c(smallCache());
    c.fill(0);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0).hit);
}

TEST(Cache, FillOfResidentLineIsIdempotent)
{
    Cache c(smallCache());
    c.fill(0);
    const auto r = c.fill(0);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.evictedValid);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0);
    c.flush();
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(smallCache());
    c.access(0);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.probe(0));
}

TEST(Cache, MissRateComputation)
{
    Cache c(smallCache());
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(0);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

TEST(Cache, WorkingSetWithinCapacityFullyHitsAfterWarmup)
{
    CacheConfig cfg{"c", 64 * kKiB, 8, 64, 1.0,
                    ReplacementPolicy::Lru};
    Cache c(cfg);
    for (Addr line = 0; line < 1024; ++line)
        c.access(line * 64);
    c.resetStats();
    for (Addr line = 0; line < 1024; ++line)
        c.access(line * 64);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.0);
}

TEST(Cache, WorkingSetBeyondCapacityThrashesUnderLru)
{
    CacheConfig cfg{"c", 64 * kKiB, 8, 64, 1.0,
                    ReplacementPolicy::Lru};
    Cache c(cfg);
    // Stream 2x the capacity cyclically: LRU worst case, ~0 hits.
    for (int pass = 0; pass < 3; ++pass)
        for (Addr line = 0; line < 2048; ++line)
            c.access(line * 64);
    EXPECT_GT(c.missRate(), 0.95);
}

TEST(Cache, HitLatencyFromConfig)
{
    Cache c(CacheConfig{"c", 512, 2, 64, 7.5,
                        ReplacementPolicy::Lru});
    EXPECT_EQ(c.hitLatency(), ticksFromNs(7.5));
}

TEST(CacheDeath, RejectsZeroSets)
{
    EXPECT_DEATH(Cache(CacheConfig{"bad", 64, 8, 64, 1.0,
                                   ReplacementPolicy::Lru}),
                 "zero sets");
}

TEST(CacheDeath, RejectsNonMultipleGeometry)
{
    EXPECT_DEATH(Cache(CacheConfig{"bad", 1000, 3, 64, 1.0,
                                   ReplacementPolicy::Lru}),
                 "multiple");
}

// ---------------------------------------------------------------
// Property sweep: random access streams across geometries must keep
// accesses == hits + misses and respect capacity bounds.
// ---------------------------------------------------------------

using Geometry = std::tuple<std::uint64_t, std::uint32_t>;

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometryTest, InvariantsHoldUnderRandomStream)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheConfig{"p", size, ways, 64, 1.0,
                        ReplacementPolicy::Lru});
    Rng rng(99);
    std::uint64_t manual_hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBelow(4096) * 64;
        const bool resident = c.probe(a);
        const auto r = c.access(a);
        EXPECT_EQ(r.hit, resident);
        manual_hits += r.hit;
    }
    EXPECT_EQ(c.accesses(), 20000u);
    EXPECT_EQ(c.hits(), manual_hits);
    EXPECT_EQ(c.hits() + c.misses(), c.accesses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(Geometry{8 * kKiB, 2}, Geometry{32 * kKiB, 8},
                      Geometry{256 * kKiB, 8},
                      Geometry{1 * kMiB, 16}));

} // namespace
} // namespace centaur
