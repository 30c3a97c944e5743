#include "cache/cache.hh"

#include <limits>

#include "sim/log.hh"

namespace centaur {

Cache::Cache(const CacheConfig &cfg)
    : _cfg(cfg), _sets(cfg.sets()),
      _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _ways(cfg.sets() * cfg.ways)
{
    if (_sets == 0)
        fatal("cache '", cfg.name, "' has zero sets: size ",
              cfg.sizeBytes, " B, ", cfg.ways, " ways, ", cfg.lineBytes,
              " B lines");
    if (cfg.sizeBytes % (static_cast<std::uint64_t>(cfg.ways) *
                         cfg.lineBytes) != 0)
        fatal("cache '", cfg.name,
              "' size is not a multiple of ways*lineBytes");
}

CacheAccessResult
Cache::access(Addr addr)
{
    ++_accesses;
    const Addr line = addr / _cfg.lineBytes;
    const std::uint64_t set = setIndex(line);
    const std::uint64_t tag = tagOf(line);
    Way *base = &_ways[set * _cfg.ways];
    ++_clock;

    for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
        if (base[w].valid() && base[w].tag == tag) {
            if (_cfg.policy == ReplacementPolicy::Lru)
                base[w].stamp = _clock;
            return CacheAccessResult{true, false, 0};
        }
    }

    ++_misses;
    const std::size_t victim = victimWay(set);
    Way &way = base[victim];
    CacheAccessResult res;
    res.hit = false;
    res.evictedValid = way.valid();
    if (way.valid())
        res.evictedAddr = (way.tag * _sets + set) * _cfg.lineBytes;
    way.tag = tag;
    way.stamp = _clock;
    return res;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = addr / _cfg.lineBytes;
    const std::uint64_t set = line % _sets;
    const std::uint64_t tag = line / _sets;
    const Way *base = &_ways[set * _cfg.ways];
    for (std::uint32_t w = 0; w < _cfg.ways; ++w)
        if (base[w].valid() && base[w].tag == tag)
            return true;
    return false;
}

CacheAccessResult
Cache::fill(Addr addr)
{
    const Addr line = addr / _cfg.lineBytes;
    const std::uint64_t set = setIndex(line);
    const std::uint64_t tag = tagOf(line);
    Way *base = &_ways[set * _cfg.ways];
    ++_clock;

    for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
        if (base[w].valid() && base[w].tag == tag)
            return CacheAccessResult{true, false, 0};
    }
    const std::size_t victim = victimWay(set);
    Way &way = base[victim];
    CacheAccessResult res;
    res.hit = false;
    res.evictedValid = way.valid();
    if (way.valid())
        res.evictedAddr = (way.tag * _sets + set) * _cfg.lineBytes;
    way.tag = tag;
    way.stamp = _clock;
    return res;
}

std::size_t
Cache::victimWay(std::uint64_t set)
{
    Way *base = &_ways[set * _cfg.ways];
    // Prefer an invalid way.
    for (std::uint32_t w = 0; w < _cfg.ways; ++w)
        if (!base[w].valid())
            return w;

    switch (_cfg.policy) {
      case ReplacementPolicy::Random:
        return static_cast<std::size_t>(_rng.nextBelow(_cfg.ways));
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        std::size_t victim = 0;
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            if (base[w].stamp < oldest) {
                oldest = base[w].stamp;
                victim = w;
            }
        }
        return victim;
      }
    }
    panic("unreachable replacement policy");
}

void
Cache::flush()
{
    for (auto &way : _ways)
        way.stamp = 0;
}

void
Cache::resetStats()
{
    _accesses = 0;
    _misses = 0;
}

} // namespace centaur
