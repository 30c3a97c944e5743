/**
 * @file
 * Hot-row embedding cache tier: a byte-budgeted software cache that
 * sits between the gather loop and the node's shared `host_dram` /
 * PCIe / NIC resources, converting workload skew (dlrm/workload.hh
 * zipf/trace streams) into saved occupancy on the fabric
 * (core/fabric.hh) and the cluster network (cluster/network.hh).
 *
 * The paper's Fig. 6 MPKI study (src/cache) shows embedding gathers
 * blow out every hardware cache level; this tier models the software
 * answer a serving system can actually deploy: an SRAM/HBM-class
 * near-compute store of hot rows. A `CacheTier` annotates each
 * InferenceBatch with a per-lookup hit mask *before* the stage
 * backends run; on a hit the backend skips the DRAM / PCIe / NIC
 * charge for that row and pays a small per-row lookup cost, on a
 * miss it pays the existing path while the tier does its fill
 * bookkeeping (admission + eviction).
 *
 * Pluggable policies, each a flat slab-and-hash structure:
 *  - eviction: LRU, LFU (frequency with FIFO tie-break), or
 *    segmented LRU (probation/protected, 2-segment);
 *  - admission: always, or ghost-LRU filtered (a bounded ghost list
 *    of recently seen/evicted keys; a row is admitted only on its
 *    second touch, so one-hit wonders never displace hot rows).
 *
 * Determinism contract: accesses happen in request-id dispatch order
 * within one single-threaded simulation, and ties break on insertion
 * sequence numbers. Residency is indexed by a hash table
 * (sim/flat_lru.hh), but nothing observable iterates it: victims
 * come from list ends or a heap ordered on (frequency, insertion
 * seq), and residentKeys() sorts. Runs are byte-identical at any
 * `--jobs` because suite points own independent tiers.
 *
 * The spec grammar suffix (`.../cache:<mb>[:<lru|lfu|slru>[:ghost]]`)
 * parsed here is shared by single-node specs (core/backend.hh) and
 * `cluster:` specs (cluster/cluster_spec.hh).
 */

#ifndef CENTAUR_CACHETIER_CACHE_TIER_HH
#define CENTAUR_CACHETIER_CACHE_TIER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/flat_lru.hh"
#include "sim/units.hh"

namespace centaur {

struct InferenceBatch;

/** Eviction policy of the hot-row tier. */
enum class CachePolicy : std::uint8_t
{
    Lru = 0,  //!< least-recently-used
    Lfu = 1,  //!< least-frequently-used, FIFO tie-break
    Slru = 2, //!< segmented LRU (probation + protected)
};

/** Stable grammar/report token of a policy. */
const char *cachePolicyName(CachePolicy p);

/** Cache-tier knobs, carried inside SystemSpec / ClusterSpec. */
struct CacheTierConfig
{
    /** Byte budget in MiB; 0 disables the tier entirely. */
    double capacityMB = 0.0;
    CachePolicy policy = CachePolicy::Lru;
    /** Ghost-LRU admission filter (admit on second touch). */
    bool ghost = false;
    /** Per-cached-row lookup cost (SRAM/HBM-class). */
    double lookupNs = 1.0;

    bool enabled() const { return capacityMB > 0.0; }

    bool
    operator==(const CacheTierConfig &o) const
    {
        return capacityMB == o.capacityMB && policy == o.policy &&
               ghost == o.ghost && lookupNs == o.lookupNs;
    }
    bool operator!=(const CacheTierConfig &o) const
    {
        return !(*this == o);
    }
};

/**
 * Grammar of the cache part of a backend / cluster spec:
 * `cache:<mb>[:<lru|lfu|slru>[:ghost]]`.
 */
const char *cacheTierGrammar();

/** Copy-paste-ready example cache parts for --list. */
std::vector<std::string> exampleCacheParts();

/**
 * Parse one `cache:...` spec part. Returns false and (optionally)
 * fills @p error with a token-naming message on malformed input.
 * `cache:0` (any policy) normalizes to the disabled default config,
 * so a zero-budget tier is byte-identical to no tier at all.
 */
bool tryParseCachePart(const std::string &part, CacheTierConfig *out,
                       std::string *error);

/**
 * Canonical spec-part name; empty for a disabled config. Default
 * policy/admission tokens are omitted (`cache:64`, `cache:64:lfu`,
 * `cache:64:slru:ghost`).
 */
std::string cachePartName(const CacheTierConfig &cfg);

/** Counters of one cache tier, snapshotted for reports. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Fills declined by the ghost admission filter. */
    std::uint64_t rejectedFills = 0;
    /** Bytes resident at snapshot time (entries x row bytes). */
    std::uint64_t bytesResident = 0;
    /** Fabric/NIC occupancy the hits avoided, in microseconds. */
    double fabricSavedUs = 0.0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    CacheStats &operator+=(const CacheStats &o);
};

/**
 * One hot-row cache tier. Shared by every worker of a node (like
 * the Fabric): accesses arrive in dispatch order from the node's
 * single-threaded simulation, so the fill/evict stream is
 * deterministic. Row granularity: every entry costs exactly
 * @p row_bytes (the model's embedding vector size).
 */
class CacheTier
{
  public:
    CacheTier(const CacheTierConfig &cfg, std::uint32_t row_bytes);
    ~CacheTier();

    CacheTier(const CacheTier &) = delete;
    CacheTier &operator=(const CacheTier &) = delete;

    /** Per-batch access outcome. */
    struct Access
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** hits x row bytes: fabric bytes the backends may skip. */
        std::uint64_t hitBytes = 0;
    };

    /**
     * Look up every sparse index of @p batch in table-major, then
     * flat-lookup order, filling batch.cacheHit (1 = resident before
     * this batch touched it) and running fills/evictions for the
     * misses. A row missed early in the batch is admitted
     * immediately, so a duplicate later in the same batch hits.
     */
    Access annotate(const InferenceBatch &batch);

    /** Hit-path lookup cost for @p rows cached rows. */
    Tick
    lookupTicks(std::uint64_t rows) const
    {
        return ticksFromNs(_cfg.lookupNs *
                           static_cast<double>(rows));
    }

    /** Accumulate fabric/NIC occupancy avoided by hits. */
    void recordSavedTicks(Tick t) { _savedTicks += t; }

    /** Snapshot the counters (bytesResident is current residency). */
    CacheStats stats() const;

    const CacheTierConfig &config() const { return _cfg; }
    std::uint32_t rowBytes() const { return _rowBytes; }
    std::uint64_t capacityRows() const { return _maxRows; }

    /** Resident keys in ascending key order (tests). */
    std::vector<std::uint64_t> residentKeys() const;

    /** Drop all entries, ghost state and counters. */
    void reset();

  private:
    /** The configured eviction policy (defined in cache_tier.cc). */
    struct Policy;

    /** The lookup loop, compiled once per concrete policy type. */
    template <class P>
    void annotateWith(P &policy, const InferenceBatch &batch,
                      Access &acc);

    /** Admission decision for a missed key; updates ghost state. */
    bool admit(std::uint64_t key);
    void ghostInsert(std::uint64_t key);

    CacheTierConfig _cfg;
    std::uint32_t _rowBytes;
    std::uint64_t _maxRows;
    std::unique_ptr<Policy> _policy;

    /** Ghost LRU of recently seen-but-unadmitted / evicted keys. */
    std::uint64_t _ghostCap;
    FlatLru _ghost;

    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _rejectedFills = 0;
    Tick _savedTicks = 0;
};

} // namespace centaur

#endif // CENTAUR_CACHETIER_CACHE_TIER_HH
