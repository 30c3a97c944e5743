#include "cache/hierarchy.hh"

#include <algorithm>

#include "sim/log.hh"

namespace centaur {

HierarchyConfig
broadwellHierarchyConfig()
{
    HierarchyConfig cfg;
    cfg.l1 = CacheConfig{"l1d", 32 * kKiB, 8, 64, 1.7,
                         ReplacementPolicy::Lru};
    cfg.l2 = CacheConfig{"l2", 256 * kKiB, 8, 64, 5.0,
                         ReplacementPolicy::Lru};
    // 35 MB (14 cores x 2.5 MB slices), 20-way.
    cfg.llc = CacheConfig{"llc", 35 * kMiB, 20, 64, 18.0,
                          ReplacementPolicy::Lru};
    cfg.memPathNs = 8.0;
    return cfg;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &cfg)
    : _memPath(ticksFromNs(cfg.memPathNs)), _lineBytes(cfg.l1.lineBytes)
{
    _levels.push_back(std::make_unique<Cache>(cfg.l1));
    _levels.push_back(std::make_unique<Cache>(cfg.l2));
    _levels.push_back(std::make_unique<Cache>(cfg.llc));
    if (cfg.l2.lineBytes != _lineBytes || cfg.llc.lineBytes != _lineBytes)
        fatal("cache hierarchy requires a uniform line size");
}

HierarchyAccessResult
CacheHierarchy::access(Addr addr)
{
    HierarchyAccessResult res;
    Tick latency = 0;
    for (std::size_t lvl = 0; lvl < _levels.size(); ++lvl) {
        latency += _levels[lvl]->hitLatency();
        if (_levels[lvl]->access(addr).hit) {
            res.level = static_cast<HitLevel>(lvl);
            res.latency = latency;
            // No upper-level fill: every level above this one just
            // missed, and Cache::access installs the line on a miss,
            // so the line is already resident all the way up.
            return res;
        }
    }
    res.level = HitLevel::Memory;
    res.latency = latency + _memPath;
    return res;
}

HierarchyAccessResult
CacheHierarchy::accessRange(Addr addr, std::uint64_t bytes)
{
    HierarchyAccessResult worst;
    worst.level = HitLevel::L1;
    worst.latency = 0;
    if (bytes == 0)
        return worst;
    const Addr first = addr / _lineBytes;
    const Addr last = (addr + bytes - 1) / _lineBytes;
    for (Addr line = first; line <= last; ++line) {
        const auto res = access(line * _lineBytes);
        if (static_cast<int>(res.level) >= static_cast<int>(worst.level)) {
            worst.level = res.level;
            worst.latency = std::max(worst.latency, res.latency);
        }
    }
    return worst;
}

void
CacheHierarchy::warm(Addr addr)
{
    for (auto &level : _levels)
        level->fill(addr);
}

void
CacheHierarchy::warmRange(Addr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return;
    const std::uint64_t lines =
        (addr + bytes - 1) / _lineBytes - addr / _lineBytes + 1;
    // A fill never reads another level, so warming one level after
    // another leaves what warming one line after another does.
    for (auto &level : _levels)
        level->fillRun(addr, lines);
}

void
CacheHierarchy::flush()
{
    for (auto &level : _levels)
        level->flush();
}

void
CacheHierarchy::resetStats()
{
    for (auto &level : _levels)
        level->resetStats();
}

} // namespace centaur
