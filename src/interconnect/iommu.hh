/**
 * @file
 * FPGA-side IOMMU/TLB model (Section IV-E).
 *
 * HARPv2 gives the AFU a unified virtual address space; base pointers
 * arrive over MMIO as virtual addresses and the FPGA-side IOMMU
 * translates each access. With 2 MB pages (the HARP runtime pins
 * hugepages) the TLB covers multi-GB tables with modest entry counts,
 * so translation is rarely a bottleneck - but misses cost a page walk
 * through CPU memory and the model charges them faithfully.
 */

#ifndef CENTAUR_INTERCONNECT_IOMMU_HH
#define CENTAUR_INTERCONNECT_IOMMU_HH

#include <cstdint>

#include "sim/flat_lru.hh"
#include "sim/units.hh"

namespace centaur {

/** IOMMU/TLB parameters. */
struct IommuConfig
{
    /** 2048 x 2 MB pages = 4 GB of reach, covering the largest
     *  Table I model (3.2 GB) as HARP's pinned-hugepage VTP does. */
    std::uint32_t tlbEntries = 2048;
    std::uint64_t pageBytes = 2 * kMiB;
    double hitLatencyNs = 4.0;
    double walkLatencyNs = 250.0; //!< page-table walk via CPU memory
};

/** Translation outcome. */
struct TranslationResult
{
    Addr physical = 0;
    Tick latency = 0;
    bool tlbHit = false;
};

/**
 * A fully-associative LRU TLB with an identity page mapping (the
 * simulated address space is flat; what matters is hit/miss timing).
 */
class Iommu
{
  public:
    explicit Iommu(const IommuConfig &cfg = IommuConfig{});

    TranslationResult translate(Addr virt);

    /** Pre-install the translation covering @p virt (warmup). */
    void preload(Addr virt);

    void flush();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    double
    hitRate() const
    {
        const std::uint64_t total = _hits + _misses;
        return total ? static_cast<double>(_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    const IommuConfig &config() const { return _cfg; }

  private:
    void install(std::uint64_t page);

    IommuConfig _cfg;
    Tick _hitLatency;
    Tick _walkLatency;
    FlatLru _tlb; //!< resident pages, front = most recent
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace centaur

#endif // CENTAUR_INTERCONNECT_IOMMU_HH
