/**
 * @file
 * Set-associative cache model with selectable replacement policy.
 *
 * Used functionally (hit/miss classification and LLC miss-rate / MPKI
 * statistics for Fig 6) and as the latency source for the CPU-side
 * timing models. Tag-only: data contents live in the functional DLRM
 * model, the cache tracks presence.
 */

#ifndef CENTAUR_CACHE_CACHE_HH
#define CENTAUR_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/divider.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

namespace centaur {

/** Victim-selection policy. */
enum class ReplacementPolicy
{
    Lru,
    Fifo,
    Random,
};

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * kKiB;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
    double hitLatencyNs = 1.5;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    std::uint64_t
    sets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * lineBytes);
    }
};

/** Outcome of a single-line cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool evictedValid = false; //!< a valid line was displaced
    Addr evictedAddr = 0;
};

/**
 * One level of tag-only set-associative cache.
 *
 * The victim rule, which any tag-store layout must reproduce exactly
 * (tests/cache/naive_cache.hh is the reference it is checked against):
 *   - the lowest-numbered invalid way, if the set has one;
 *   - else, for LRU, the least recently accessed way (hits and
 *     inserts count as uses; fill() of a resident line does not);
 *   - else, for FIFO, the way inserted longest ago;
 *   - else, for Random, way _rng.nextBelow(ways). The draw happens
 *     only when the set is full.
 *
 * Layout: each set is one 64-byte-aligned block of `ways` 32-bit tags
 * (padded to a multiple of 4) followed by `ways` one-byte recency
 * ranks (padded to a multiple of 16); a 20-way set is 128 B. A valid
 * way's rank is its position in the set's use order (LRU) or insertion
 * order (FIFO, Random): 0 = newest, ways-1 = the next victim. kInvalid
 * (0xFF) marks an empty way and every padding slot. Ways fill in index
 * order and only flush() empties them, so the valid ways of a set are
 * always a prefix. One branch-free scan finds both the hit and the
 * victim.
 *
 * Tag stores come from a pool in cache.cc and go back to it clean:
 * every byte 0xFF, whatever geometry used the store last. A fresh
 * store is filled once when it is allocated, and building a cache
 * fills nothing. A bitmap marks each set that install() found empty
 * or fillRun() wrote directly; flush() and the destructor reset only
 * those sets, so their cost is O(sets/64 + dirty sets). Tags of
 * invalid ways are never read, so stale tags would be harmless;
 * whole sets are reset because the pool matches stores by size, and
 * two geometries of one size place their ranks at different offsets.
 * A copy would share or duplicate a store behind the bitmap's back,
 * so a Cache is neither copyable nor movable.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);
    ~Cache();

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Access the line containing @p addr; allocate on miss.
     * Addresses are line-aligned internally.
     */
    CacheAccessResult access(Addr addr);

    /** Access without allocating on miss (probe). */
    bool probe(Addr addr) const;

    /**
     * Insert the line containing @p addr without counting an access
     * (fill from a lower level or prefetch).
     */
    CacheAccessResult fill(Addr addr);

    /**
     * fill() the @p lines consecutive lines from the one containing
     * @p addr, in address order, with the same resulting state (and
     * the same panic on a tag wider than 32 bits). Under LRU and FIFO
     * a set that is still clean gets its final state directly: from
     * an empty set, c lines of tags t, t+1, ... leave the last
     * min(c, ways) resident, line k in way k % ways with rank c-1-k
     * (Mattson et al.'s LRU stack property). Dirty sets, and every set
     * under Random (one victim stream per cache), fill line by line.
     */
    void fillRun(Addr addr, std::uint64_t lines);

    /** Invalidate everything: resets the sets in use since the last flush. */
    void flush();

    /** Reset statistics, keep contents. */
    void resetStats();

    const CacheConfig &config() const { return _cfg; }
    Tick hitLatency() const { return _hitLatency; }

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t hits() const { return _accesses - _misses; }

    double
    missRate() const
    {
        return _accesses ? static_cast<double>(_misses) /
                               static_cast<double>(_accesses)
                         : 0.0;
    }

  private:
    /** Rank of an empty way; ranks of valid ways are 0..ways-1. */
    static constexpr std::uint8_t kInvalid = 0xFF;

    /**
     * Hands a tag store back to the pool in cache.cc, which keeps a
     * destroyed cache's store for the next cache of the same size, up
     * to a fixed total.
     */
    struct StoreRelease
    {
        std::size_t bytes;
        void operator()(std::uint32_t *store) const;
    };

    /** Where a line lives, and what one scan of its set found. */
    struct SetScan
    {
        std::uint64_t set;
        std::uint32_t tag;
        std::uint32_t hitWay; //!< == ways when the line is absent
        std::uint32_t victim; //!< first invalid way, else rank ways-1
    };

    static const CacheConfig &validated(const CacheConfig &cfg);

    SetScan scan(Addr addr) const;
    CacheAccessResult install(const SetScan &s);
    void promote(std::uint64_t set, std::uint32_t way);
    /** Reset every dirty set to 0xFF bytes and clear the bitmap. */
    void cleanDirtySets();
    [[noreturn]] void panicTagTooWide(Addr addr) const;

    bool
    isDirty(std::uint64_t set) const
    {
        return (_dirty[set / 64] >> (set % 64)) & 1;
    }
    void
    markDirty(std::uint64_t set)
    {
        _dirty[set / 64] |= std::uint64_t{1} << (set % 64);
    }

    const std::uint32_t *
    tagsOf(std::uint64_t set) const
    {
        return _store.get() + set * _setWords;
    }
    std::uint32_t *
    tagsOf(std::uint64_t set)
    {
        return _store.get() + set * _setWords;
    }
    const std::uint8_t *
    ranksOf(const std::uint32_t *tags) const
    {
        return reinterpret_cast<const std::uint8_t *>(tags + _rankOffset);
    }
    std::uint8_t *
    ranksOf(std::uint32_t *tags) const
    {
        return reinterpret_cast<std::uint8_t *>(tags + _rankOffset);
    }

    CacheConfig _cfg;
    std::uint64_t _sets;
    std::uint32_t _ways;
    std::uint32_t _rankOffset; //!< tag words per set: ways, padded to 4
    std::uint64_t _setWords;   //!< words per set, a multiple of 16
    Divider _lineDiv;          //!< byte address -> line
    Divider _setDiv;           //!< line -> (tag, set)
    Tick _hitLatency;
    /**
     * _sets x _setWords words, each set starting a host cache line,
     * from the pool and clean when acquired.
     */
    std::unique_ptr<std::uint32_t[], StoreRelease> _store;
    /** One bit per set that may hold a byte other than 0xFF. */
    std::vector<std::uint64_t> _dirty;
    Rng _rng{0xC0FFEE};

    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace centaur

#endif // CENTAUR_CACHE_CACHE_HH
