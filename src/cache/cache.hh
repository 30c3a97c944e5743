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
 * Layout: each set is one 64-byte-aligned block of `ways` tags
 * followed by `ways` one-byte recency ranks. A valid way's rank is its
 * position in the set's use order (LRU) or insertion order (FIFO,
 * Random): 0 = newest, ways-1 = the next victim. kInvalid (0xFF)
 * marks an empty way and every padding slot. Ways fill in index order
 * and only flush() empties them, so the valid ways of a set are always
 * a prefix. One branch-free scan finds both the hit and the victim.
 *
 * Tags are 16 bits wide where that fits a set in one 64-byte host line
 * and 32-bit tags would not (13 to 21 ways: the LLC), and 32 bits wide
 * otherwise. The narrow layout packs 2*ways bytes of tags and then the
 * ranks, unpadded: a 20-way set is 40 B of tags and 20 B of ranks in
 * one 64 B block, where 32-bit tags need 128 B. The wide layout pads
 * the tags to a multiple of 4 and the ranks to a multiple of 16. No
 * vector step reads or writes a byte of another way or another set.
 * The first access, fill or fillRun whose tag needs more than 16 bits
 * widens a narrow cache, once and for good: every set is rewritten into
 * the 32-bit layout with the same tags, ranks and dirty bits, in a
 * store from the pool, and the narrow store goes back to it clean. A
 * probe of such a tag misses and widens nothing.
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

    /** Bytes of the tag store: sets x the bytes of one set. */
    std::size_t storeBytes() const { return _store.get_deleter().bytes; }

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
        void operator()(std::uint8_t *store) const;
    };

    /** Where one tag width puts a set's tags and ranks. */
    struct Layout
    {
        bool narrow;             //!< 16-bit tags, else 32-bit
        std::uint32_t tagSlots;  //!< tags per set, padding included
        std::uint32_t rankByte;  //!< offset of the ranks in the set
        std::uint32_t rankSlots; //!< ranks per set, padding included
        std::uint32_t setBytes;  //!< a multiple of 64
    };

    /** Where a line lives, and what one scan of its set found. */
    struct SetScan
    {
        std::uint64_t set;
        std::uint32_t tag;
        std::uint32_t hitWay; //!< == ways when the line is absent
        std::uint32_t victim; //!< first invalid way, else rank ways-1
    };

    /** scan()'s accumulators for one vector width (cache.cc). */
    template <typename Tag, unsigned Lanes> struct ScanLanes;

    static const CacheConfig &validated(const CacheConfig &cfg);
    static Layout layoutFor(std::uint32_t ways, bool narrow);
    /** The narrow layout where it makes a set one 64 B block. */
    static Layout initialLayout(std::uint32_t ways);

    /** The set and tag of @p addr (no scan); panics past 32-bit tags. */
    SetScan locate(Addr addr) const;
    /** Whether @p tag goes in 16 bits; widens the store first if not. */
    bool narrowFor(std::uint32_t tag);
    /** Rewrite every set into the 32-bit layout, in a new store. */
    void widen();
    /** One pass over @p set: the way holding @p tag, and the victim. */
    template <typename Tag>
    SetScan scan(std::uint64_t set, std::uint32_t tag) const;
    /** access() (@p counted) or fill() of a located line. */
    template <typename Tag>
    CacheAccessResult lookup(std::uint64_t set, std::uint32_t tag,
                             bool counted);
    template <typename Tag> CacheAccessResult install(const SetScan &s);
    /** fillRun()'s @p count lines into the clean set @p set from tag0. */
    template <typename Tag>
    void writeRun(std::uint64_t set, std::uint64_t tag0, std::uint64_t count);
    template <typename Tag> void promote(std::uint64_t set, std::uint32_t way);
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

    const std::uint8_t *
    blockOf(std::uint64_t set) const
    {
        return _store.get() + set * _layout.setBytes;
    }
    std::uint8_t *
    blockOf(std::uint64_t set)
    {
        return _store.get() + set * _layout.setBytes;
    }

    CacheConfig _cfg;
    std::uint64_t _sets;
    std::uint32_t _ways;
    Layout _layout;
    Divider _lineDiv; //!< byte address -> line
    Divider _setDiv;  //!< line -> (tag, set)
    Tick _hitLatency;
    /**
     * _sets x _layout.setBytes bytes, each set starting a host cache
     * line, from the pool and clean when acquired.
     */
    std::unique_ptr<std::uint8_t[], StoreRelease> _store;
    /** One bit per set that may hold a byte other than 0xFF. */
    std::vector<std::uint64_t> _dirty;
    Rng _rng{0xC0FFEE};

    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace centaur

#endif // CENTAUR_CACHE_CACHE_HH
