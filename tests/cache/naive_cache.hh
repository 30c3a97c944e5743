/**
 * @file
 * Stamp-based reference cache for the differential tests: the model
 * Cache replaced, kept verbatim in behaviour. Every way holds a full
 * 64-bit tag and a 64-bit stamp from a clock bumped on every access
 * and fill (LRU: last use; FIFO: insert time; 0 = invalid). The victim
 * is the first invalid way, else the smallest stamp (LRU/FIFO) or an
 * Rng draw (Random), found by a second scan after the hit scan.
 * Cache's rank-encoded single scan must match it call for call.
 */

#ifndef CENTAUR_TESTS_CACHE_NAIVE_CACHE_HH
#define CENTAUR_TESTS_CACHE_NAIVE_CACHE_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/cache.hh"
#include "sim/random.hh"

namespace centaur {
namespace naive {

class StampCache
{
  public:
    explicit StampCache(const CacheConfig &cfg)
        : _cfg(cfg), _sets(cfg.sets()), _ways(_sets * cfg.ways)
    {
    }

    CacheAccessResult
    access(Addr addr)
    {
        ++_accesses;
        const Addr line = addr / _cfg.lineBytes;
        Way *base = &_ways[(line % _sets) * _cfg.ways];
        const std::uint64_t tag = line / _sets;
        ++_clock;
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            if (base[w].valid() && base[w].tag == tag) {
                if (_cfg.policy == ReplacementPolicy::Lru)
                    base[w].stamp = _clock;
                return CacheAccessResult{true, false, 0};
            }
        }
        ++_misses;
        return install(line);
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = addr / _cfg.lineBytes;
        const Way *base = &_ways[(line % _sets) * _cfg.ways];
        for (std::uint32_t w = 0; w < _cfg.ways; ++w)
            if (base[w].valid() && base[w].tag == line / _sets)
                return true;
        return false;
    }

    CacheAccessResult
    fill(Addr addr)
    {
        const Addr line = addr / _cfg.lineBytes;
        const Way *base = &_ways[(line % _sets) * _cfg.ways];
        ++_clock;
        for (std::uint32_t w = 0; w < _cfg.ways; ++w)
            if (base[w].valid() && base[w].tag == line / _sets)
                return CacheAccessResult{true, false, 0};
        return install(line);
    }

    void
    flush()
    {
        for (Way &way : _ways)
            way.stamp = 0;
    }

    void
    resetStats()
    {
        _accesses = 0;
        _misses = 0;
    }

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t misses() const { return _misses; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;

        bool valid() const { return stamp != 0; }
    };

    CacheAccessResult
    install(Addr line)
    {
        const std::uint64_t set = line % _sets;
        Way &way = _ways[set * _cfg.ways + victimWay(set)];
        CacheAccessResult res;
        res.evictedValid = way.valid();
        if (way.valid())
            res.evictedAddr = (way.tag * _sets + set) * _cfg.lineBytes;
        way.tag = line / _sets;
        way.stamp = _clock;
        return res;
    }

    std::uint32_t
    victimWay(std::uint64_t set)
    {
        const Way *base = &_ways[set * _cfg.ways];
        for (std::uint32_t w = 0; w < _cfg.ways; ++w)
            if (!base[w].valid())
                return w;
        if (_cfg.policy == ReplacementPolicy::Random)
            return static_cast<std::uint32_t>(_rng.nextBelow(_cfg.ways));
        std::uint32_t victim = 0;
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            if (base[w].stamp < oldest) {
                oldest = base[w].stamp;
                victim = w;
            }
        }
        return victim;
    }

    CacheConfig _cfg;
    std::uint64_t _sets;
    std::vector<Way> _ways; //!< _sets x _cfg.ways, row-major
    std::uint64_t _clock = 0;
    Rng _rng{0xC0FFEE}; //!< Cache's seed, so Random draws line up

    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
};

} // namespace naive
} // namespace centaur

#endif // CENTAUR_TESTS_CACHE_NAIVE_CACHE_HH
