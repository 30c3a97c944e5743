/**
 * @file
 * Differential tests of CacheTier against the node-based reference
 * tier in naive_tier.hh. Both tiers see the same seeded uniform and
 * zipf streams for every policy, with and without the ghost filter,
 * at capacities of 0, 1, 2 and many rows; every annotate() must
 * return the same Access and hit mask and leave the same stats() and
 * residentKeys().
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "dlrm/workload.hh"
#include "naive_tier.hh"
#include "sim/random.hh"
#include "sim/units.hh"

namespace centaur {
namespace {

constexpr std::uint32_t kRowBytes = 128;

/** Budget of @p rows rows; fractional rows round down. */
CacheTierConfig
tierConfig(double rows, CachePolicy policy, bool ghost)
{
    CacheTierConfig cfg;
    cfg.capacityMB = rows * kRowBytes / static_cast<double>(kMiB);
    cfg.policy = policy;
    cfg.ghost = ghost;
    return cfg;
}

InferenceBatch
accessBatch(const std::vector<std::uint64_t> &rows)
{
    InferenceBatch b;
    b.batch = 1;
    b.lookupsPerTable = static_cast<std::uint32_t>(rows.size());
    b.indices.push_back(rows);
    return b;
}

/** Annotate @p batch on both tiers and compare every observable. */
void
expectSameAnnotate(CacheTier &flat, naive::NodeTier &ref,
                   const InferenceBatch &batch)
{
    const InferenceBatch flat_batch = batch;
    const InferenceBatch ref_batch = batch;
    const CacheTier::Access a = flat.annotate(flat_batch);
    const CacheTier::Access b = ref.annotate(ref_batch);
    ASSERT_EQ(a.hits, b.hits);
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.hitBytes, b.hitBytes);
    ASSERT_EQ(flat_batch.cacheHit, ref_batch.cacheHit);

    const CacheStats sa = flat.stats(), sb = ref.stats();
    ASSERT_EQ(sa.hits, sb.hits);
    ASSERT_EQ(sa.misses, sb.misses);
    ASSERT_EQ(sa.evictions, sb.evictions);
    ASSERT_EQ(sa.rejectedFills, sb.rejectedFills);
    ASSERT_EQ(sa.bytesResident, sb.bytesResident);
    ASSERT_EQ(flat.residentKeys(), ref.residentKeys());
}

struct StreamCase
{
    const char *name;
    double skew; //!< 0: uniform
    std::uint64_t population;
};

TEST(CacheTierOracle, MatchesNodeTierOnSeededStreams)
{
    const StreamCase streams[] = {
        {"uniform", 0.0, 600},
        {"zipf", 1.1, 5000},
    };
    const double capacities[] = {0.5, 1, 2, 300};
    const CachePolicy policies[] = {CachePolicy::Lru, CachePolicy::Lfu,
                                    CachePolicy::Slru};
    constexpr std::size_t kTables = 2;
    constexpr std::size_t kLookups = 24;
    constexpr int kBatches = 150;

    for (const StreamCase &stream : streams)
        for (const CachePolicy policy : policies)
            for (const bool ghost : {false, true})
                for (const double rows : capacities) {
                    SCOPED_TRACE(std::string(stream.name) + " " +
                                 cachePolicyName(policy) +
                                 (ghost ? ":ghost" : "") + " rows=" +
                                 std::to_string(rows));
                    const CacheTierConfig cfg =
                        tierConfig(rows, policy, ghost);
                    CacheTier flat(cfg, kRowBytes);
                    naive::NodeTier ref(cfg, kRowBytes);
                    ASSERT_EQ(flat.capacityRows(),
                              static_cast<std::uint64_t>(rows));

                    Rng rng(7);
                    const ZipfAliasSampler zipf(stream.population,
                                                stream.skew);
                    for (int n = 0; n < kBatches; ++n) {
                        InferenceBatch batch;
                        batch.batch = 1;
                        batch.lookupsPerTable = kLookups;
                        batch.indices.assign(kTables, {});
                        for (auto &rows_t : batch.indices)
                            for (std::size_t i = 0; i < kLookups; ++i)
                                rows_t.push_back(zipf.sample(rng));
                        expectSameAnnotate(flat, ref, batch);
                        if (HasFatalFailure())
                            return;
                    }
                    EXPECT_GT(ref.stats().misses, 0u);
                    if (rows >= 2) {
                        EXPECT_GT(ref.stats().hits, 0u);
                    }
                }
}

// A key inserted later reaches frequency 2 before an earlier one:
// under the (freq, insertion seq) tie-break the earlier key is still
// the older one and goes first. Frequency buckets that append on
// promotion would evict the later key instead.
TEST(CacheTierOracle, LfuTieBreakKeepsInsertionOrderAcrossPromotion)
{
    const CacheTierConfig cfg = tierConfig(2, CachePolicy::Lfu, false);
    CacheTier flat(cfg, kRowBytes);
    naive::NodeTier ref(cfg, kRowBytes);

    const std::vector<std::vector<std::uint64_t>> steps = {
        {1, 2}, // insert 1 (seq 1), then 2 (seq 2)
        {2},    // 2 reaches freq 2 first
        {1},    // 1 reaches freq 2 second
        {3},    // tie at freq 2: evict 1, the older insertion
    };
    for (const auto &rows : steps) {
        expectSameAnnotate(flat, ref, accessBatch(rows));
        ASSERT_FALSE(HasFatalFailure());
    }
    EXPECT_EQ(flat.residentKeys(), (std::vector<std::uint64_t>{2, 3}));
}

} // namespace
} // namespace centaur
