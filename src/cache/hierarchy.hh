/**
 * @file
 * Multi-level cache hierarchy model of the evaluation CPU
 * (Xeon E5-2680v4 Broadwell: 32 KB L1D, 256 KB L2 per core, 35 MB
 * shared LLC). Classifies each line access with the level it hits in
 * and the associated load-to-use latency; LLC misses are resolved by
 * the caller against the DRAM model.
 */

#ifndef CENTAUR_CACHE_HIERARCHY_HH
#define CENTAUR_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "sim/units.hh"

namespace centaur {

/** Which level serviced an access. */
enum class HitLevel : std::uint8_t
{
    L1 = 0,
    L2 = 1,
    Llc = 2,
    Memory = 3,
};

/** Classification of one line access. */
struct HierarchyAccessResult
{
    HitLevel level = HitLevel::Memory;
    Tick latency = 0; //!< load-to-use latency excluding DRAM service
};

/** Per-level geometry for the hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1{"l1d", 32 * kKiB, 8, 64, 1.7, ReplacementPolicy::Lru};
    CacheConfig l2{"l2", 256 * kKiB, 8, 64, 5.0, ReplacementPolicy::Lru};
    CacheConfig llc{"llc", 35 * kMiB, 20, 64, 18.0,
                    ReplacementPolicy::Lru};
    /** Additional latency to reach the memory controller on LLC miss. */
    double memPathNs = 8.0;
};

/**
 * An L1/L2/LLC chain with allocate-on-miss at every level (the LLC in
 * Broadwell is inclusive-ish; exact inclusion policy is immaterial to
 * the studied workloads' miss statistics).
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &cfg);

    /** Access the line containing @p addr. */
    HierarchyAccessResult access(Addr addr);

    /** Access a byte range; @return per-line worst (deepest) level. */
    HierarchyAccessResult accessRange(Addr addr, std::uint64_t bytes);

    /** Warm the line into all levels without counting an access. */
    void warm(Addr addr);

    /**
     * Warm a byte range into all levels: the state warm() of each of
     * its lines in address order leaves, one Cache::fillRun per level.
     */
    void warmRange(Addr addr, std::uint64_t bytes);

    void flush();
    void resetStats();

    Cache &l1() { return *_levels[0]; }
    Cache &l2() { return *_levels[1]; }
    Cache &llc() { return *_levels[2]; }
    const Cache &llc() const { return *_levels[2]; }

    Tick memPathLatency() const { return _memPath; }
    std::uint32_t lineBytes() const { return _lineBytes; }

  private:
    std::vector<std::unique_ptr<Cache>> _levels;
    Tick _memPath;
    std::uint32_t _lineBytes;
};

/** E5-2680v4-like hierarchy (the paper's evaluation CPU). */
HierarchyConfig broadwellHierarchyConfig();

} // namespace centaur

#endif // CENTAUR_CACHE_HIERARCHY_HH
