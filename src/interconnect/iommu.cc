#include "interconnect/iommu.hh"

#include <algorithm>

namespace centaur {

Iommu::Iommu(const IommuConfig &cfg)
    : _cfg(cfg), _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _walkLatency(ticksFromNs(cfg.walkLatencyNs)),
      _tlb(std::max<std::uint64_t>(1, cfg.tlbEntries))
{
}

TranslationResult
Iommu::translate(Addr virt)
{
    const std::uint64_t page = virt / _cfg.pageBytes;
    TranslationResult res;
    res.physical = virt; // identity map in the simulated space
    const std::uint32_t slot = _tlb.find(page);
    if (slot != kNoSlot) {
        ++_hits;
        res.tlbHit = true;
        res.latency = _hitLatency;
        _tlb.moveToFront(slot);
    } else {
        ++_misses;
        res.tlbHit = false;
        res.latency = _hitLatency + _walkLatency;
        install(page);
    }
    return res;
}

void
Iommu::preload(Addr virt)
{
    const std::uint64_t page = virt / _cfg.pageBytes;
    if (_tlb.find(page) == kNoSlot)
        install(page);
}

void
Iommu::flush()
{
    _tlb.clear();
}

void
Iommu::install(std::uint64_t page)
{
    // With tlbEntries == 0 the TLB still holds the latest page: the
    // first install finds nothing to evict.
    if (_tlb.size() >= _cfg.tlbEntries && !_tlb.empty())
        _tlb.popBack();
    _tlb.pushFront(page);
}

} // namespace centaur
