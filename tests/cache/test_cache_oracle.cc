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
#include <thread>
#include <tuple>
#include <vector>

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

/** Tags below this fit a 16-bit tag store; the next one widens it. */
constexpr std::uint64_t kNarrowTags = std::uint64_t{1} << 16;

/** Outcomes a stream must produce so agreement is not vacuous. */
struct StreamCounts
{
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
};

/**
 * Drive @p fast and @p ref with @p ops calls of one seeded stream:
 * ~3x ways tags on a few hot sets, so sets fill, evict and re-hit
 * quickly, and one op in 16 anywhere, with a tag below @p tagLimit
 * (by default up to the largest 32-bit tag).
 * @return a description of the first disagreement, or "" if none.
 */
std::string
driveStream(Cache &fast, naive::StampCache &ref, const CacheConfig &cfg,
            std::uint64_t seed, int ops, StreamCounts *counts = nullptr,
            std::uint64_t tagLimit = std::uint64_t{1} << 32)
{
    const std::uint64_t sets = cfg.sets();
    const std::uint64_t hot_sets = sets < 48 ? sets : 48;
    const std::uint64_t hot_tags = 3 * cfg.ways;
    Rng rng(seed);
    StreamCounts seen;
    auto differ = [](const CacheAccessResult &a,
                     const CacheAccessResult &b) {
        return a.hit != b.hit || a.evictedValid != b.evictedValid ||
               a.evictedAddr != b.evictedAddr;
    };

    for (int op = 0; op < ops; ++op) {
        std::uint64_t set;
        std::uint64_t tag;
        if (rng.nextBelow(16) == 0) {
            set = rng.nextBelow(sets);
            tag = rng.nextBelow(tagLimit);
        } else {
            set = rng.nextBelow(hot_sets) * (sets / hot_sets);
            tag = rng.nextBelow(hot_tags);
        }
        const Addr addr = (tag * sets + set) * cfg.lineBytes +
                          rng.nextBelow(cfg.lineBytes);

        const std::uint64_t kind = rng.nextBelow(1000);
        if (kind < 650) {
            const CacheAccessResult a = fast.access(addr);
            if (differ(a, ref.access(addr)))
                return "access op " + std::to_string(op);
            seen.hits += a.hit;
            seen.evictions += a.evictedValid;
        } else if (kind < 900) {
            const CacheAccessResult a = fast.fill(addr);
            if (differ(a, ref.fill(addr)))
                return "fill op " + std::to_string(op);
            seen.evictions += a.evictedValid;
        } else if (kind < 997) {
            if (fast.probe(addr) != ref.probe(addr))
                return "probe op " + std::to_string(op);
        } else if (kind < 999) {
            fast.resetStats();
            ref.resetStats();
        } else if (rng.nextBelow(8) == 0) {
            fast.flush();
            ref.flush();
        }
        if (fast.accesses() != ref.accesses() ||
            fast.misses() != ref.misses())
            return "counters after op " + std::to_string(op);
    }
    if (counts)
        *counts = seen;
    return "";
}

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
    const std::uint64_t seed = 0x5EED0000 + cfg.sets() * 31 + cfg.ways +
                               static_cast<std::uint64_t>(cfg.policy);

    // 16-bit tags first, so a 16-bit tag store keeps its layout; then
    // tags of any width, which widen it early on.
    const std::size_t bytes = fast.storeBytes();
    ASSERT_EQ(driveStream(fast, ref, cfg, ~seed, 40000, nullptr,
                          kNarrowTags),
              "");
    ASSERT_EQ(fast.storeBytes(), bytes);
    StreamCounts counts;
    const std::string mismatch =
        driveStream(fast, ref, cfg, seed, 120000, &counts);
    ASSERT_EQ(mismatch, "");
    // The stream must exercise both outcomes, not just agree on one.
    EXPECT_GT(counts.hits, 10000u);
    EXPECT_GT(counts.evictions, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Combine(
        ::testing::Values(
            // 4 sets x 2 ways.
            CacheConfig{"two_way", 512, 2, 64, 1.0},
            // 64 sets x 8 ways (the L1D).
            CacheConfig{"eight_way", 32 * kKiB, 8, 64, 1.0},
            // 112 sets x 16 ways: 16-bit tags, whole vector steps.
            CacheConfig{"sixteen_way", 112 * 16 * 64, 16, 64, 1.0},
            // 7 * 2^4 = 112 sets x 20 ways: not a power of two, and
            // 16-bit tags end in a half step.
            CacheConfig{"twenty_way", 112 * 20 * 64, 20, 64, 1.0},
            // 28672 sets x 20 ways.
            broadwellHierarchyConfig().llc),
        ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return std::get<0>(info.param).name + "_" +
               ::testing::PrintToString(std::get<1>(info.param));
    });

// The pool hands a destroyed cache's tag store to the next cache of
// the same size, and a cache resets only the sets it dirtied. A
// rebuilt cache must still match a fresh stamp model call for call.

using RecycleCase = std::tuple<std::uint32_t, ReplacementPolicy>;

class CacheRecycledStoreTest : public ::testing::TestWithParam<RecycleCase>
{
};

TEST_P(CacheRecycledStoreTest, RebuiltCacheMatchesStampModel)
{
    // About 2240 lines whatever the ways: 2240 sets of 1 way down to
    // 8 sets of 254, so the widest sets still fill between flushes.
    const std::uint32_t ways = std::get<0>(GetParam());
    const ReplacementPolicy policy = std::get<1>(GetParam());
    const std::uint64_t sets = 2240 / ways;
    const CacheConfig cfg{"recycled", sets * ways * 64, ways, 64, 1.0,
                          policy};
    const std::uint64_t seed =
        0xD1A70000 + ways * 3 + static_cast<std::uint64_t>(policy);
    {
        Cache used(cfg);
        naive::StampCache ref(cfg);
        ASSERT_EQ(driveStream(used, ref, cfg, seed, 20000), "");
    }
    Cache fast(cfg);
    naive::StampCache ref(cfg);
    StreamCounts counts;
    ASSERT_EQ(driveStream(fast, ref, cfg, seed + 1, 40000, &counts), "");
    EXPECT_GT(counts.hits, 0u);
    EXPECT_GT(counts.evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Ways, CacheRecycledStoreTest,
    ::testing::Combine(::testing::Values(1u, 3u, 8u, 12u, 20u, 254u),
                       ::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Random)),
    [](const ::testing::TestParamInfo<RecycleCase> &info) {
        return std::to_string(std::get<0>(info.param)) + "way_" +
               ::testing::PrintToString(std::get<1>(info.param));
    });

// fillRun writes a clean LRU or FIFO set's final state directly and
// fills every other set line by line. A cache warmed by one fillRun
// must match the stamp model warmed by per-line fills, call for call.

/**
 * Fill every way of every set of @p fast and @p ref with lines of new
 * tags: the evictions, in order, show each set's whole state.
 * @return a description of the first disagreement, or "" if none.
 */
std::string
drainSets(Cache &fast, naive::StampCache &ref, const CacheConfig &cfg)
{
    const std::uint64_t sets = cfg.sets();
    for (std::uint64_t set = 0; set < sets; ++set) {
        for (std::uint64_t way = 0; way < cfg.ways; ++way) {
            const Addr addr =
                ((0xFFFF0000u + way) * sets + set) * cfg.lineBytes;
            const CacheAccessResult a = fast.fill(addr);
            const CacheAccessResult b = ref.fill(addr);
            if (a.hit != b.hit || a.evictedValid != b.evictedValid ||
                a.evictedAddr != b.evictedAddr)
                return "drain of set " + std::to_string(set) + " way " +
                       std::to_string(way);
        }
    }
    return "";
}

/** A fillRun: its first line and its length, in lines. */
struct RunShape
{
    const char *name;
    std::uint64_t first;
    std::uint64_t lines;
};

using FillRunCase = std::tuple<std::uint32_t, ReplacementPolicy>;

class CacheFillRunTest : public ::testing::TestWithParam<FillRunCase>
{
};

TEST_P(CacheFillRunTest, MatchesPerLineFills)
{
    // The recycled-store geometry: about 2240 lines, 8 to 2240 sets.
    const std::uint32_t ways = std::get<0>(GetParam());
    const ReplacementPolicy policy = std::get<1>(GetParam());
    const std::uint64_t sets = 2240 / ways;
    const CacheConfig cfg{"fill_run", sets * ways * 64, ways, 64, 1.0,
                          policy};
    const RunShape shapes[] = {
        {"shorter than sets", 5 * sets + sets / 4, sets / 2 + 1},
        {"exactly sets", 2 * sets, sets},
        {"three times sets", 0, 3 * sets + 5},
        {"every set overflows", sets, (ways + 2) * sets + 5},
        {"wraps past the last set", 8 * sets - sets / 3, sets + sets / 2},
        {"crosses the 16-bit tag boundary",
         (kNarrowTags - 2) * sets + sets / 2, 3 * sets},
    };
    std::uint64_t seed = 0xF1110000 + ways * 3 +
                         static_cast<std::uint64_t>(policy) * 1000;
    for (const RunShape &shape : shapes) {
        for (const bool dirtied : {false, true}) {
            SCOPED_TRACE(std::string(shape.name) +
                         (dirtied ? ", dirtied first" : ", fresh"));
            Cache fast(cfg);
            naive::StampCache ref(cfg);
            if (dirtied) {
                // 16-bit tags: a 16-bit tag store keeps its layout.
                ASSERT_EQ(driveStream(fast, ref, cfg, ++seed, 3000, nullptr,
                                      kNarrowTags),
                          "");
            }
            // 17 bytes into the first line: the run starts at its line.
            fast.fillRun(shape.first * cfg.lineBytes + 17, shape.lines);
            for (std::uint64_t k = 0; k < shape.lines; ++k)
                ref.fill((shape.first + k) * cfg.lineBytes);
            for (std::uint64_t k = 0; k < shape.lines; ++k) {
                const Addr addr = (shape.first + k) * cfg.lineBytes;
                ASSERT_EQ(fast.probe(addr), ref.probe(addr))
                    << "run line " << k;
            }
            ASSERT_EQ(fast.accesses(), ref.accesses());
            ASSERT_EQ(driveStream(fast, ref, cfg, ++seed, 3000), "");
            ASSERT_EQ(drainSets(fast, ref, cfg), "");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ways, CacheFillRunTest,
    ::testing::Combine(::testing::Values(1u, 3u, 8u, 12u, 16u, 20u, 254u),
                       ::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Random)),
    [](const ::testing::TestParamInfo<FillRunCase> &info) {
        return std::to_string(std::get<0>(info.param)) + "way_" +
               ::testing::PrintToString(std::get<1>(info.param));
    });

// A 16-bit tag store widens on the first line whose tag needs 17
// bits. Every set must come through with its state, so the cache goes
// on matching the stamp model call for call, and Random keeps its
// victim stream.

using WideningCase = std::tuple<CacheConfig, ReplacementPolicy>;

class CacheWideningTest : public ::testing::TestWithParam<WideningCase>
{
};

TEST_P(CacheWideningTest, CrossingTheSixteenBitBoundaryMatches)
{
    CacheConfig cfg = std::get<0>(GetParam());
    cfg.policy = std::get<1>(GetParam());
    const std::uint64_t sets = cfg.sets();
    const std::uint64_t seed = 0x81DE0000 + cfg.ways * 3 +
                               static_cast<std::uint64_t>(cfg.policy);
    // A line with the smallest 17-bit tag: it widens the store.
    const Addr wideLine = kNarrowTags * sets + sets / 3;

    for (const char *how : {"access", "fill", "fillRun"}) {
        SCOPED_TRACE(std::string("widened by ") + how);
        Cache fast(cfg);
        naive::StampCache ref(cfg);
        ASSERT_EQ(fast.storeBytes(), sets * 64) << "one host line per set";

        // Sets 3k hold ways + k % 5 lines (full, the oldest evicted),
        // sets 3k + 1 hold ways / 2 (partly full), sets 3k + 2 none.
        // Tags come from both ends of the 16-bit range, 0xFFFF
        // included, and every other line is used twice.
        Rng rng(seed);
        std::vector<Addr> resident;
        for (std::uint64_t set = 0; set < sets; ++set) {
            const std::uint64_t lines =
                set % 3 == 0 ? cfg.ways + (set / 3) % 5
                             : (set % 3 == 1 ? cfg.ways / 2 : 0);
            for (std::uint64_t k = 0; k < lines; ++k) {
                const std::uint64_t tag =
                    k % 2 ? kNarrowTags - k : rng.nextBelow(64) * 64 + k;
                const Addr addr = (tag * sets + set) * cfg.lineBytes;
                resident.push_back(addr);
                for (int use = 0; use < 1 + static_cast<int>(k % 2); ++use) {
                    const CacheAccessResult a = fast.access(addr);
                    const CacheAccessResult b = ref.access(addr);
                    ASSERT_EQ(a.hit, b.hit) << "set " << set;
                    ASSERT_EQ(a.evictedValid, b.evictedValid);
                    ASSERT_EQ(a.evictedAddr, b.evictedAddr);
                }
            }
        }
        // A probe whose tag needs 17 bits misses, even where its low
        // 16 bits match a resident tag, and does not widen the store.
        for (const Addr line : resident) {
            const Addr alias = line + kNarrowTags * sets * cfg.lineBytes;
            ASSERT_FALSE(fast.probe(alias)) << "line " << line;
        }
        ASSERT_EQ(fast.storeBytes(), sets * 64);

        const Addr addr = wideLine * cfg.lineBytes;
        if (std::string(how) == "fillRun") {
            // Lines below and above the boundary, in one run.
            const std::uint64_t first = wideLine - sets / 2;
            fast.fillRun(first * cfg.lineBytes, sets);
            for (std::uint64_t k = 0; k < sets; ++k)
                ref.fill((first + k) * cfg.lineBytes);
        } else {
            const bool isAccess = std::string(how) == "access";
            const CacheAccessResult a =
                isAccess ? fast.access(addr) : fast.fill(addr);
            const CacheAccessResult b =
                isAccess ? ref.access(addr) : ref.fill(addr);
            ASSERT_FALSE(a.hit || b.hit);
            ASSERT_EQ(a.evictedValid, b.evictedValid);
            ASSERT_EQ(a.evictedAddr, b.evictedAddr);
        }
        ASSERT_GT(fast.storeBytes(), sets * 64) << "did not widen";
        EXPECT_TRUE(fast.probe(addr));
        for (const Addr line : resident)
            ASSERT_EQ(fast.probe(line), ref.probe(line)) << "line " << line;
        ASSERT_EQ(fast.accesses(), ref.accesses());
        ASSERT_EQ(fast.misses(), ref.misses());
        ASSERT_EQ(driveStream(fast, ref, cfg, seed + 1, 20000), "");
        ASSERT_EQ(drainSets(fast, ref, cfg), "");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheWideningTest,
    ::testing::Combine(
        ::testing::Values(
            // 16-bit tags from 13 to 21 ways: one, two or three whole
            // vector steps, a half step, and one to three single ways.
            CacheConfig{"thirteen_way", 112 * 13 * 64, 13, 64, 1.0},
            CacheConfig{"fifteen_way", 112 * 15 * 64, 15, 64, 1.0},
            CacheConfig{"sixteen_way", 112 * 16 * 64, 16, 64, 1.0},
            CacheConfig{"twenty_way", 112 * 20 * 64, 20, 64, 1.0},
            CacheConfig{"twenty_one_way", 112 * 21 * 64, 21, 64, 1.0},
            broadwellHierarchyConfig().llc),
        ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)),
    [](const ::testing::TestParamInfo<WideningCase> &info) {
        return std::get<0>(info.param).name + "_" +
               ::testing::PrintToString(std::get<1>(info.param));
    });

TEST(CacheRecycledStore, OtherGeometryOfTheSameSizeMatches)
{
    // 64 sets of 12 ways and 64 sets of 8 ways both use 64 B per set,
    // so both stores are 4 KiB; the pool matches them by size. The
    // 12-way sets keep ranks at byte 48 and tags of ways 8-11 at bytes
    // 32-47, where the 8-way sets keep their ranks.
    const CacheConfig wide{"twelve_way", 64 * 12 * 64, 12, 64, 1.0};
    const CacheConfig narrow{"eight_way", 64 * 8 * 64, 8, 64, 1.0};
    {
        Cache used(wide);
        naive::StampCache ref(wide);
        ASSERT_EQ(driveStream(used, ref, wide, 12, 20000), "");
    }
    Cache fast(narrow);
    naive::StampCache ref(narrow);
    ASSERT_EQ(driveStream(fast, ref, narrow, 8, 40000), "");
}

TEST(CacheRecycledStore, NarrowAndWideStoresOfOneSizeStartEmpty)
{
    // 112 sets of 20 ways with 16-bit tags and 112 sets of 8 ways with
    // 32-bit tags both take 64 B per set, so the pool matches their
    // 7 KiB stores. The 20-way sets keep tags of ways 16-19 at bytes
    // 32-39, where the 8-way sets keep their ranks, and ranks at
    // bytes 40-59, where the 8-way sets keep rank padding.
    const CacheConfig narrow{"narrow", 112 * 20 * 64, 20, 64, 1.0};
    const CacheConfig wide{"wide", 112 * 8 * 64, 8, 64, 1.0};
    const CacheConfig order[][2] = {{narrow, wide}, {wide, narrow}};
    std::uint64_t seed = 0x5A3E0000;
    for (const auto &pair : order) {
        const CacheConfig &before = pair[0];
        const CacheConfig &after = pair[1];
        SCOPED_TRACE(before.name + " store reused by " + after.name);
        {
            Cache used(before);
            naive::StampCache ref(before);
            ASSERT_EQ(driveStream(used, ref, before, ++seed, 20000, nullptr,
                                  kNarrowTags),
                      "");
            ASSERT_EQ(used.storeBytes(), 112u * 64);
        }
        Cache fast(after);
        naive::StampCache ref(after);
        ASSERT_EQ(fast.storeBytes(), 112u * 64);
        // Filling every way of every set evicts nothing, in both.
        ASSERT_EQ(drainSets(fast, ref, after), "");
        ASSERT_EQ(driveStream(fast, ref, after, ++seed, 20000), "");
    }
}

TEST(CacheRecycledStore, FlushOfPartlyDirtyLlcMatches)
{
    // Dirty a run of sets that crosses bitmap words, scattered sets
    // and the last set, then flush and go on: flush() resets only the
    // dirty sets, and the rest of the store must already be clean.
    const CacheConfig cfg = broadwellHierarchyConfig().llc;
    const std::uint64_t sets = cfg.sets();
    Cache fast(cfg);
    naive::StampCache ref(cfg);
    Rng rng(21);
    std::vector<Addr> lines;
    auto touch = [&](std::uint64_t set) {
        const Addr addr =
            (rng.nextBelow(64) * sets + set) * cfg.lineBytes;
        lines.push_back(addr);
        const CacheAccessResult a = fast.access(addr);
        const CacheAccessResult b = ref.access(addr);
        return a.hit == b.hit && a.evictedValid == b.evictedValid &&
               a.evictedAddr == b.evictedAddr;
    };
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t set = 60; set < 200; ++set)
            ASSERT_TRUE(touch(set)) << "set " << set;
        for (int i = 0; i < 2000; ++i)
            ASSERT_TRUE(touch(rng.nextBelow(sets))) << "op " << i;
        ASSERT_TRUE(touch(sets - 1));
        fast.flush();
        ref.flush();
        for (const Addr addr : lines)
            ASSERT_FALSE(fast.probe(addr) || ref.probe(addr))
                << "line " << addr << " survived flush";
    }
    ASSERT_EQ(driveStream(fast, ref, cfg, 31, 40000), "");
}

TEST(CacheRecycledStore, BuildUseDestroyOnFourThreadsMatches)
{
    // Stores pass between threads through the pool: every cache built
    // must match a fresh stamp model, whichever thread dirtied its
    // store. One geometry, so every build can take any idle store.
    const CacheConfig shared{"shared", 112 * 20 * 64, 20, 64, 1.0};
    std::vector<std::string> mismatch(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t, &shared, &mismatch] {
            CacheConfig cfg = shared;
            cfg.policy = static_cast<ReplacementPolicy>(t % 3);
            for (int round = 0; round < 20 && mismatch[t].empty();
                 ++round) {
                Cache fast(cfg);
                naive::StampCache ref(cfg);
                mismatch[t] = driveStream(fast, ref, cfg,
                                          std::uint64_t(t) * 1000 + round,
                                          3000);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatch, std::vector<std::string>(4));
}

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

/** The first address whose line needs a 33-bit tag in @p cfg. */
Addr
firstTooWideAddr(const CacheConfig &cfg)
{
    return (cfg.sets() << 32) * cfg.lineBytes;
}

void
expectPanicsOnTagWiderThan32Bits(const CacheConfig &cfg)
{
    const Addr limit = firstTooWideAddr(cfg);
    const std::string message = cfg.name + ".*32 bits";
    Cache c(cfg);
    EXPECT_DEATH(c.access(limit), message);
    // A 16-bit tag store widens here; the limit stays where it was.
    EXPECT_FALSE(c.access(limit - 1).hit);
    EXPECT_DEATH(c.access(limit), message);
    EXPECT_DEATH(c.fill(limit), message);
}

TEST(CacheOracleDeath, PanicsOnTagWiderThan32Bits)
{
    // L1D: 64 sets of 64 B lines, so the tag is addr >> 12.
    ASSERT_EQ(firstTooWideAddr(broadwellHierarchyConfig().l1),
              Addr{1} << 44);
    expectPanicsOnTagWiderThan32Bits(broadwellHierarchyConfig().l1);
    // The LLC: 20 ways, 16-bit tags until the first wider one.
    expectPanicsOnTagWiderThan32Bits(broadwellHierarchyConfig().llc);
}

void
expectFillRunPanicsWhereThePerLineLoopWould(const CacheConfig &cfg)
{
    // The last three lines with 32-bit tags fill; one more line does
    // not, whether the run starts below the limit or at it.
    const Addr limit = firstTooWideAddr(cfg);
    const std::string message = cfg.name + ".*32 bits";
    const Addr line = cfg.lineBytes;
    Cache c(cfg);
    EXPECT_DEATH(c.fillRun(limit - 3 * line, 4), message);
    c.fillRun(limit - 3 * line, 3);
    EXPECT_TRUE(c.probe(limit - line));
    EXPECT_DEATH(c.fillRun(limit - 3 * line, 4), message);
    EXPECT_DEATH(c.fillRun(limit, 1), message);
}

TEST(CacheOracleDeath, FillRunPanicsWhereThePerLineLoopWould)
{
    expectFillRunPanicsWhereThePerLineLoopWould(
        broadwellHierarchyConfig().l1);
    expectFillRunPanicsWhereThePerLineLoopWould(
        broadwellHierarchyConfig().llc);
}

} // namespace
} // namespace centaur
