/**
 * @file
 * Differential tests: Cache (rank-encoded sets, one scan per access)
 * against naive::StampCache (per-way 64-bit stamps, two scans), driven
 * by the same seeded stream of access / fill / probe / flush /
 * resetStats calls. Every call must return the same hit, evictedValid
 * and evictedAddr, and leave the same accesses() and misses().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "naive_cache.hh"
#include "sim/random.hh"

namespace centaur {

// Readable parameters in test names and failure messages (ADL).

void
PrintTo(const CacheConfig &cfg, std::ostream *os)
{
    *os << cfg.name << " (" << cfg.sets() << " sets x " << cfg.ways
        << " ways)";
}

void
PrintTo(ReplacementPolicy p, std::ostream *os)
{
    switch (p) {
      case ReplacementPolicy::Lru:
        *os << "Lru";
        return;
      case ReplacementPolicy::Fifo:
        *os << "Fifo";
        return;
      case ReplacementPolicy::Random:
        *os << "Random";
        return;
    }
}

namespace {

using OracleCase = std::tuple<CacheConfig, ReplacementPolicy>;

class CacheOracleTest : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(CacheOracleTest, MatchesStampModelCallForCall)
{
    CacheConfig cfg = std::get<0>(GetParam());
    cfg.policy = std::get<1>(GetParam());
    Cache fast(cfg);
    naive::StampCache ref(cfg);

    const std::uint64_t sets = cfg.sets();
    // Concentrate on a few sets with ~3x ways tags each so sets fill,
    // evict and re-hit quickly; one op in 16 goes anywhere, up to the
    // largest 32-bit tag.
    const std::uint64_t hot_sets = sets < 48 ? sets : 48;
    const std::uint64_t hot_tags = 3 * cfg.ways;
    Rng rng(0x5EED0000 + sets * 31 + cfg.ways +
            static_cast<std::uint64_t>(cfg.policy));

    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    for (int op = 0; op < 120000; ++op) {
        std::uint64_t set;
        std::uint64_t tag;
        if (rng.nextBelow(16) == 0) {
            set = rng.nextBelow(sets);
            tag = rng.nextBelow(std::uint64_t{1} << 32);
        } else {
            set = rng.nextBelow(hot_sets) * (sets / hot_sets);
            tag = rng.nextBelow(hot_tags);
        }
        const Addr addr = (tag * sets + set) * cfg.lineBytes +
                          rng.nextBelow(cfg.lineBytes);

        const std::uint64_t kind = rng.nextBelow(1000);
        if (kind < 650) {
            const CacheAccessResult a = fast.access(addr);
            const CacheAccessResult b = ref.access(addr);
            ASSERT_EQ(a.hit, b.hit) << "access op " << op;
            ASSERT_EQ(a.evictedValid, b.evictedValid) << "access op " << op;
            ASSERT_EQ(a.evictedAddr, b.evictedAddr) << "access op " << op;
            hits += a.hit;
            evictions += a.evictedValid;
        } else if (kind < 900) {
            const CacheAccessResult a = fast.fill(addr);
            const CacheAccessResult b = ref.fill(addr);
            ASSERT_EQ(a.hit, b.hit) << "fill op " << op;
            ASSERT_EQ(a.evictedValid, b.evictedValid) << "fill op " << op;
            ASSERT_EQ(a.evictedAddr, b.evictedAddr) << "fill op " << op;
            evictions += a.evictedValid;
        } else if (kind < 997) {
            ASSERT_EQ(fast.probe(addr), ref.probe(addr)) << "probe op " << op;
        } else if (kind < 999) {
            fast.resetStats();
            ref.resetStats();
        } else if (rng.nextBelow(8) == 0) {
            fast.flush();
            ref.flush();
        }
        ASSERT_EQ(fast.accesses(), ref.accesses()) << "op " << op;
        ASSERT_EQ(fast.misses(), ref.misses()) << "op " << op;
    }
    // The stream must exercise both outcomes, not just agree on one.
    EXPECT_GT(hits, 10000u);
    EXPECT_GT(evictions, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Combine(
        ::testing::Values(
            // 4 sets x 2 ways.
            CacheConfig{"two_way", 512, 2, 64, 1.0},
            // 64 sets x 8 ways (the L1D).
            CacheConfig{"eight_way", 32 * kKiB, 8, 64, 1.0},
            // 7 * 2^4 = 112 sets x 20 ways: not a power of two.
            CacheConfig{"twenty_way", 112 * 20 * 64, 20, 64, 1.0},
            // 28672 sets x 20 ways.
            broadwellHierarchyConfig().llc),
        ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return std::get<0>(info.param).name + "_" +
               ::testing::PrintToString(std::get<1>(info.param));
    });

TEST(CacheOracle, FullLlcUniformStreamMatches)
{
    // The serving gather's pattern: uniform lines over 4x capacity.
    const CacheConfig cfg = broadwellHierarchyConfig().llc;
    Cache fast(cfg);
    naive::StampCache ref(cfg);
    const std::uint64_t lines = 4 * cfg.sizeBytes / cfg.lineBytes;
    Rng rng(7);
    for (int op = 0; op < 400000; ++op) {
        const Addr addr = rng.nextBelow(lines) * cfg.lineBytes;
        const CacheAccessResult a = fast.access(addr);
        const CacheAccessResult b = ref.access(addr);
        ASSERT_EQ(a.hit, b.hit) << "op " << op;
        ASSERT_EQ(a.evictedValid, b.evictedValid) << "op " << op;
        ASSERT_EQ(a.evictedAddr, b.evictedAddr) << "op " << op;
    }
    EXPECT_EQ(fast.misses(), ref.misses());
    EXPECT_GT(fast.hits(), 0u);
}

TEST(CacheOracleDeath, RejectsMoreThan254Ways)
{
    EXPECT_DEATH(Cache(CacheConfig{"too_wide", 255 * 64, 255, 64, 1.0}),
                 "too_wide.*254");
}

TEST(CacheOracle, Accepts254Ways)
{
    Cache c(CacheConfig{"widest", 254 * 64, 254, 64, 1.0});
    for (Addr line = 0; line < 254; ++line)
        EXPECT_FALSE(c.access(line * 64).evictedValid);
    const CacheAccessResult r = c.access(254 * 64);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_EQ(r.evictedAddr, 0u);
}

TEST(CacheOracleDeath, PanicsOnTagWiderThan32Bits)
{
    // L1D: 64 sets of 64 B lines, so the tag is addr >> 12.
    const CacheConfig l1 = broadwellHierarchyConfig().l1;
    Cache c(l1);
    EXPECT_FALSE(c.access((Addr{1} << 44) - 1).hit);
    EXPECT_DEATH(c.access(Addr{1} << 44), "l1d.*32 bits");
    EXPECT_DEATH(c.fill(Addr{1} << 44), "l1d.*32 bits");
}

} // namespace
} // namespace centaur
