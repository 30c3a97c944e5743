/**
 * @file
 * Unit tests for the FPGA-side IOMMU/TLB model, plus a differential
 * test against the list-plus-map LRU TLB it used to be built on.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>

#include "interconnect/iommu.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

IommuConfig
smallTlb()
{
    return IommuConfig{4, 4096, 4.0, 250.0};
}

TEST(Iommu, FirstTranslationMisses)
{
    Iommu mmu(smallTlb());
    const auto r = mmu.translate(0x1000);
    EXPECT_FALSE(r.tlbHit);
    EXPECT_EQ(r.latency, ticksFromNs(254.0));
    EXPECT_EQ(r.physical, 0x1000u);
}

TEST(Iommu, SecondTranslationHits)
{
    Iommu mmu(smallTlb());
    mmu.translate(0x1000);
    const auto r = mmu.translate(0x1800); // same 4 KB page
    EXPECT_TRUE(r.tlbHit);
    EXPECT_EQ(r.latency, ticksFromNs(4.0));
}

TEST(Iommu, DistinctPagesAreDistinctEntries)
{
    Iommu mmu(smallTlb());
    mmu.translate(0x0000);
    const auto r = mmu.translate(0x2000);
    EXPECT_FALSE(r.tlbHit);
}

TEST(Iommu, LruEvictionAtCapacity)
{
    Iommu mmu(smallTlb()); // 4 entries
    for (Addr p = 0; p < 4; ++p)
        mmu.translate(p * 4096);
    mmu.translate(0);          // page 0 now most recent
    mmu.translate(4 * 4096);   // evicts page 1
    EXPECT_TRUE(mmu.translate(0).tlbHit);
    EXPECT_FALSE(mmu.translate(1 * 4096).tlbHit);
}

TEST(Iommu, PreloadAvoidsFirstMiss)
{
    Iommu mmu(smallTlb());
    mmu.preload(0x1000);
    EXPECT_TRUE(mmu.translate(0x1000).tlbHit);
}

TEST(Iommu, FlushDropsAllEntries)
{
    Iommu mmu(smallTlb());
    mmu.translate(0x1000);
    mmu.flush();
    EXPECT_FALSE(mmu.translate(0x1000).tlbHit);
}

TEST(Iommu, HitRateAccounting)
{
    Iommu mmu(smallTlb());
    mmu.translate(0);
    mmu.translate(0);
    mmu.translate(0);
    mmu.translate(0);
    EXPECT_DOUBLE_EQ(mmu.hitRate(), 0.75);
    EXPECT_EQ(mmu.hits(), 3u);
    EXPECT_EQ(mmu.misses(), 1u);
}

TEST(Iommu, DefaultCoversMultiGigabyteTables)
{
    // 2048 entries x 2 MB pages = 4 GB reach: larger than the
    // biggest Table I model (3.2 GB), so steady-state gathers are
    // TLB-resident - matching HARP's pinned-hugepage runtime.
    const IommuConfig cfg;
    EXPECT_GE(cfg.tlbEntries * cfg.pageBytes,
              static_cast<std::uint64_t>(3.2e9));
}

TEST(Iommu, IdentityMapping)
{
    Iommu mmu;
    EXPECT_EQ(mmu.translate(0xDEADBEE0).physical, 0xDEADBEE0u);
}

/**
 * The TLB as a std::list recency order plus a page -> node map:
 * touch moves to front, install evicts the back when full (and, with
 * tlbEntries == 0, still installs the newest page).
 */
class ListTlb
{
  public:
    explicit ListTlb(const IommuConfig &cfg) : _cfg(cfg) {}

    bool
    translate(Addr virt)
    {
        const std::uint64_t page = virt / _cfg.pageBytes;
        auto it = _entries.find(page);
        if (it != _entries.end()) {
            _lru.splice(_lru.begin(), _lru, it->second);
            return true;
        }
        install(page);
        return false;
    }

    void
    preload(Addr virt)
    {
        const std::uint64_t page = virt / _cfg.pageBytes;
        if (_entries.find(page) == _entries.end())
            install(page);
    }

    void
    flush()
    {
        _lru.clear();
        _entries.clear();
    }

  private:
    void
    install(std::uint64_t page)
    {
        if (_entries.size() >= _cfg.tlbEntries && !_lru.empty()) {
            _entries.erase(_lru.back());
            _lru.pop_back();
        }
        _lru.push_front(page);
        _entries[page] = _lru.begin();
    }

    IommuConfig _cfg;
    std::list<std::uint64_t> _lru;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator> _entries;
};

TEST(Iommu, MatchesListTlbCallForCall)
{
    for (const std::uint32_t entries : {0u, 1u, 64u}) {
        SCOPED_TRACE(entries);
        const IommuConfig cfg{entries, 4096, 4.0, 250.0};
        Iommu mmu(cfg);
        ListTlb ref(cfg);
        Rng rng(5);
        std::uint64_t hits = 0;
        for (int step = 0; step < 20000; ++step) {
            // 96 pages: a 64-entry TLB both hits and evicts.
            const Addr virt = rng.nextBelow(96 * 4096);
            const std::uint64_t op = rng.nextBelow(100);
            if (op == 0) {
                mmu.flush();
                ref.flush();
            } else if (op < 5) {
                mmu.preload(virt);
                ref.preload(virt);
            } else {
                const bool hit = ref.translate(virt);
                const TranslationResult r = mmu.translate(virt);
                ASSERT_EQ(r.tlbHit, hit) << step;
                ASSERT_EQ(r.latency,
                          ticksFromNs(hit ? 4.0 : 254.0));
                hits += hit;
            }
        }
        EXPECT_EQ(mmu.hits(), hits);
        EXPECT_GT(hits, 0u);
    }
}

} // namespace
} // namespace centaur
