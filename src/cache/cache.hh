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

#include <cstdint>
#include <string>
#include <vector>

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
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

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

    /** Invalidate everything. */
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
    /**
     * 16 bytes, not 24 with a separate valid flag: a 35 MiB LLC's
     * array is 9.2 MB instead of 13.8 MB, and every system builds one.
     */
    struct Way
    {
        std::uint64_t tag = 0;
        /**
         * LRU: last use; FIFO: insert time. Stamps come from _clock,
         * which is incremented before use, so 0 means invalid.
         */
        std::uint64_t stamp = 0;

        bool valid() const { return stamp != 0; }
    };

    std::uint64_t setIndex(Addr line) const { return line % _sets; }
    std::uint64_t tagOf(Addr line) const { return line / _sets; }
    std::size_t victimWay(std::uint64_t set);

    CacheConfig _cfg;
    std::uint64_t _sets;
    Tick _hitLatency;
    std::vector<Way> _ways; //!< _sets x _cfg.ways, row-major
    std::uint64_t _clock = 0;
    Rng _rng{0xC0FFEE};

    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace centaur

#endif // CENTAUR_CACHE_CACHE_HH
