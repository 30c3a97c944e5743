/**
 * @file
 * Hot-row cache tier tests: the spec-part grammar round-trips and
 * rejects bad tokens by name, the byte budget is honored at row
 * granularity, each eviction policy evicts the key its contract
 * promises, the ghost filter admits only on the second touch, the
 * fill/evict stream is a pure function of the access stream, and a
 * /cache:0 suffix is tick-identical to the bare spec on every
 * registered backend composition.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "core/backend.hh"
#include "core/server.hh"
#include "core/system_builder.hh"
#include "dlrm/workload.hh"
#include "sim/units.hh"

namespace centaur {
namespace {

constexpr std::uint32_t kRowBytes = 256;

CacheTierConfig
tierConfig(double mb, CachePolicy policy = CachePolicy::Lru,
           bool ghost = false)
{
    CacheTierConfig cfg;
    cfg.capacityMB = mb;
    cfg.policy = policy;
    cfg.ghost = ghost;
    return cfg;
}

/** Capacity expressed in rows of kRowBytes. */
double
mbForRows(std::uint64_t rows)
{
    return static_cast<double>(rows * kRowBytes) /
           static_cast<double>(kMiB);
}

/** One-table batch touching @p rows in order. */
InferenceBatch
accessBatch(const std::vector<std::uint64_t> &rows)
{
    InferenceBatch b;
    b.batch = 1;
    b.lookupsPerTable =
        static_cast<std::uint32_t>(rows.size());
    b.indices.push_back(rows);
    return b;
}

std::uint64_t
key(std::uint64_t table, std::uint64_t row)
{
    return (table << 32) | row;
}

TEST(CacheSpecGrammar, ParsesAndCanonicalizes)
{
    CacheTierConfig cfg;
    std::string err;

    ASSERT_TRUE(tryParseCachePart("cache:64", &cfg, &err)) << err;
    EXPECT_DOUBLE_EQ(cfg.capacityMB, 64.0);
    EXPECT_EQ(cfg.policy, CachePolicy::Lru);
    EXPECT_FALSE(cfg.ghost);
    EXPECT_EQ(cachePartName(cfg), "cache:64");

    ASSERT_TRUE(tryParseCachePart("cache:16:lfu", &cfg, &err));
    EXPECT_EQ(cfg.policy, CachePolicy::Lfu);
    EXPECT_EQ(cachePartName(cfg), "cache:16:lfu");

    ASSERT_TRUE(tryParseCachePart("cache:8:slru:ghost", &cfg, &err));
    EXPECT_EQ(cfg.policy, CachePolicy::Slru);
    EXPECT_TRUE(cfg.ghost);
    EXPECT_EQ(cachePartName(cfg), "cache:8:slru:ghost");

    // cache:0 normalizes to the disabled default, whatever the
    // policy tokens say: a zero-budget tier must not exist at all.
    ASSERT_TRUE(tryParseCachePart("cache:0:lfu:ghost", &cfg, &err));
    EXPECT_FALSE(cfg.enabled());
    EXPECT_EQ(cfg, CacheTierConfig{});
    EXPECT_EQ(cachePartName(cfg), "");
}

TEST(CacheSpecGrammar, RejectsBadTokensByName)
{
    CacheTierConfig cfg;
    std::string err;

    EXPECT_FALSE(tryParseCachePart("cache:huge", &cfg, &err));
    EXPECT_NE(err.find("huge"), std::string::npos) << err;

    EXPECT_FALSE(tryParseCachePart("cache:-4", &cfg, &err));
    EXPECT_NE(err.find("-4"), std::string::npos) << err;

    EXPECT_FALSE(tryParseCachePart("cache:64:mru", &cfg, &err));
    EXPECT_NE(err.find("mru"), std::string::npos) << err;

    EXPECT_FALSE(tryParseCachePart("cache:64:lru:gst", &cfg, &err));
    EXPECT_NE(err.find("gst"), std::string::npos) << err;

    // A non-finite budget would reach the tier's byte conversion.
    for (const std::string number : {"nan", "inf", "-inf"}) {
        EXPECT_FALSE(tryParseCachePart("cache:" + number, &cfg, &err));
        EXPECT_NE(err.find("'" + number + "'"), std::string::npos)
            << err;
    }
}

TEST(CacheSpecGrammar, BackendSpecCarriesTheSuffix)
{
    SystemSpec spec;
    std::string err;
    ASSERT_TRUE(
        tryParseSpec("cpu+fpga/cache:32:lfu", &spec, &err)) << err;
    EXPECT_DOUBLE_EQ(spec.cache.capacityMB, 32.0);
    EXPECT_EQ(spec.cache.policy, CachePolicy::Lfu);

    EXPECT_FALSE(tryParseSpec("cpu/cache:64:mru", &spec, &err));
    EXPECT_NE(err.find("mru"), std::string::npos) << err;
}

TEST(CacheTierBudget, RowGranularCapacityAndResidency)
{
    const std::uint64_t rows = 64;
    CacheTier tier(tierConfig(mbForRows(rows)), kRowBytes);
    ASSERT_EQ(tier.capacityRows(), rows);

    std::vector<std::uint64_t> fill(rows);
    for (std::uint64_t i = 0; i < rows; ++i)
        fill[i] = i;
    tier.annotate(accessBatch(fill));

    CacheStats s = tier.stats();
    EXPECT_EQ(s.misses, rows);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.bytesResident, rows * kRowBytes);

    // One more distinct row: the budget holds, so something leaves.
    tier.annotate(accessBatch({rows}));
    s = tier.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.bytesResident, rows * kRowBytes);
    EXPECT_EQ(tier.residentKeys().size(), rows);
}

TEST(CacheTierBudget, DuplicateWithinOneBatchHitsAfterFill)
{
    CacheTier tier(tierConfig(mbForRows(8)), kRowBytes);
    const CacheTier::Access a =
        tier.annotate(accessBatch({7, 7}));
    EXPECT_EQ(a.misses, 1u);
    EXPECT_EQ(a.hits, 1u);
    EXPECT_EQ(a.hitBytes, kRowBytes);
}

TEST(CachePolicies, LruEvictsTheLeastRecentlyUsed)
{
    CacheTier tier(tierConfig(mbForRows(2)), kRowBytes);
    tier.annotate(accessBatch({1, 2})); // resident {1, 2}
    tier.annotate(accessBatch({1}));    // 1 more recent than 2
    tier.annotate(accessBatch({3}));    // evicts 2
    EXPECT_EQ(tier.residentKeys(),
              (std::vector<std::uint64_t>{key(0, 1), key(0, 3)}));
}

TEST(CachePolicies, LfuEvictsTheLeastFrequentlyUsed)
{
    CacheTier tier(tierConfig(mbForRows(2), CachePolicy::Lfu),
                   kRowBytes);
    tier.annotate(accessBatch({1, 2, 1})); // freq: 1 -> 2, 2 -> 1
    tier.annotate(accessBatch({3}));       // evicts 2
    EXPECT_EQ(tier.residentKeys(),
              (std::vector<std::uint64_t>{key(0, 1), key(0, 3)}));
}

TEST(CachePolicies, SlruProtectedRowsSurviveAScan)
{
    // 5 rows: the protected segment caps at 4/5 of residency, and
    // victims come from probation, so a one-touch scan churns the
    // probation slot without flushing the proven-hot rows.
    CacheTier tier(tierConfig(mbForRows(5), CachePolicy::Slru),
                   kRowBytes);
    tier.annotate(accessBatch({1, 2, 3, 4, 5}));
    tier.annotate(accessBatch({1, 2, 3, 4})); // promote these four
    tier.annotate(accessBatch({10, 11, 12})); // scan churns probation
    EXPECT_EQ(tier.residentKeys(),
              (std::vector<std::uint64_t>{key(0, 1), key(0, 2),
                                          key(0, 3), key(0, 4),
                                          key(0, 12)}));
    EXPECT_EQ(tier.stats().evictions, 3u);
}

TEST(CacheAdmission, GhostFilterAdmitsOnSecondTouchOnly)
{
    CacheTier tier(
        tierConfig(mbForRows(8), CachePolicy::Lru, true),
        kRowBytes);

    tier.annotate(accessBatch({1})); // first touch: ghost only
    EXPECT_TRUE(tier.residentKeys().empty());
    EXPECT_EQ(tier.stats().rejectedFills, 1u);

    tier.annotate(accessBatch({1})); // second touch: admitted
    EXPECT_EQ(tier.residentKeys(),
              (std::vector<std::uint64_t>{key(0, 1)}));

    const CacheTier::Access a = tier.annotate(accessBatch({1}));
    EXPECT_EQ(a.hits, 1u);
    EXPECT_EQ(tier.stats().rejectedFills, 1u);
}

TEST(CacheDeterminism, SameStreamSameFillAndEvictionState)
{
    DlrmConfig model;
    model.numTables = 4;
    model.lookupsPerTable = 16;
    model.rowsPerTable = 100000;

    WorkloadConfig wl;
    wl.batch = 8;
    wl.seed = 17;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = 1.0;

    const CacheTierConfig cfg =
        tierConfig(mbForRows(512), CachePolicy::Slru, true);
    CacheTier a(cfg, kRowBytes);
    CacheTier b(cfg, kRowBytes);

    WorkloadGenerator gen_a(model, wl);
    WorkloadGenerator gen_b(model, wl);
    for (int i = 0; i < 50; ++i) {
        a.annotate(gen_a.next());
        b.annotate(gen_b.next());
    }

    const CacheStats sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sa.hits, sb.hits);
    EXPECT_EQ(sa.misses, sb.misses);
    EXPECT_EQ(sa.evictions, sb.evictions);
    EXPECT_EQ(sa.rejectedFills, sb.rejectedFills);
    EXPECT_EQ(sa.bytesResident, sb.bytesResident);
    EXPECT_EQ(a.residentKeys(), b.residentKeys());
    EXPECT_GT(sa.hits, 0u);
    EXPECT_GT(sa.evictions, 0u);
}

TEST(CacheZeroIdentity, ZeroBudgetSuffixMatchesEverySpec)
{
    DlrmConfig model;
    model.numTables = 4;
    model.lookupsPerTable = 16;
    model.rowsPerTable = 100000;

    WorkloadConfig wl;
    wl.batch = 8;
    wl.seed = 23;

    for (const std::string &spec : registeredSpecs()) {
        SCOPED_TRACE(spec);
        auto bare = SystemBuilder().spec(spec).model(model).build();
        auto zero = SystemBuilder()
                        .spec(spec + "/cache:0")
                        .model(model)
                        .build();
        // Never share one batch between systems: the cache tier
        // annotates the batch it sees (mutable hit mask).
        WorkloadGenerator gen_bare(model, wl);
        WorkloadGenerator gen_zero(model, wl);
        const InferenceResult a = bare->infer(gen_bare.next());
        const InferenceResult b = zero->infer(gen_zero.next());
        EXPECT_EQ(a.latency(), b.latency());
        EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
        EXPECT_EQ(b.cacheHits + b.cacheMisses, 0u);
    }
}

TEST(CacheServing, ZipfSkewYieldsHitsAndNeverSlowsServing)
{
    DlrmConfig model;
    model.numTables = 4;
    model.lookupsPerTable = 16;
    model.rowsPerTable = 100000;

    ServingConfig cfg;
    cfg.arrivalRatePerSec = 1500.0;
    cfg.batchPerRequest = 8;
    cfg.requests = 100;
    cfg.seed = 31;
    cfg.workers = 2;
    cfg.dist = IndexDistribution::Zipf;
    cfg.zipfSkew = 1.1;
    // Saved-occupancy accounting lives on the contended fabric
    // path: without a fabric there is no DRAM charge to skip.
    cfg.contend = true;

    const ServingStats cached =
        runServingSim("cpu/cache:16", model, cfg);
    const ServingStats bare = runServingSim("cpu", model, cfg);

    EXPECT_GT(cached.cache.hits, 0u);
    EXPECT_GT(cached.cache.hitRate(), 0.3);
    EXPECT_GT(cached.cache.fabricSavedUs, 0.0);
    EXPECT_LE(cached.p50Us, bare.p50Us + 1e-9);

    // Worker counters roll up to the shared tier's totals.
    std::uint64_t worker_hits = 0;
    for (const WorkerStats &w : cached.perWorker)
        worker_hits += w.cacheHits;
    EXPECT_EQ(worker_hits, cached.cache.hits);

    EXPECT_EQ(bare.cache.hits + bare.cache.misses, 0u);
}

} // namespace
} // namespace centaur
