#include "cache/cache.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <utility>

#include <sanitizer/asan_interface.h>

#include "sim/log.hh"

namespace centaur {

namespace {

// GCC/Clang vector extensions: plain SSE2 on x86-64, no -march needed.
// A comparison yields all-ones (true) or zero lanes.

std::uint32_t
roundUp(std::uint32_t n, std::uint32_t to)
{
    return (n + to - 1) / to * to;
}

/**
 * Tag stores of destroyed caches, kept for the next cache of the same
 * size. Sweeps and serving runs build and drop systems one after
 * another, each with a 1.8 MB LLC store (3.7 MB once widened to 32-bit
 * tags). Handed back to malloc, such a store either returns to the
 * system (and its pages fault again on the next build) or stays on the
 * heap, depending on glibc's trim heuristics and on which small
 * allocations happen to sit next to it; so build time and peak memory
 * moved by whole stores with the seed.
 * Kept here, the memory held is the most stores ever live at once,
 * plus at most kMaxBytes of idle ones. Idle stores are poisoned under
 * AddressSanitizer, so a use after free still reports.
 *
 * Every store the pool hands out is clean, every byte 0xFF: a fresh
 * one is filled here, and a cache resets the sets it dirtied before
 * releasing its store (Cache::cleanDirtySets), also when it widens.
 * Stores match by size alone, so a 16-bit store may come back as a
 * 32-bit one of another geometry, and the reverse.
 */
class StorePool
{
  public:
    static constexpr std::size_t kMaxBytes = std::size_t{256} << 20;
    static constexpr std::align_val_t kAlign{64};

    void *
    acquire(std::size_t bytes)
    {
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            for (std::size_t i = _idle.size(); i-- > 0;) {
                if (_idle[i].first == bytes) {
                    void *p = _idle[i].second;
                    _idle[i] = _idle.back();
                    _idle.pop_back();
                    _idleBytes -= bytes;
                    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
                    return p;
                }
            }
        }
        void *p = ::operator new(bytes, kAlign);
        std::memset(p, 0xFF, bytes);
        return p;
    }

    void
    release(void *p, std::size_t bytes)
    {
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            if (_idleBytes + bytes <= kMaxBytes) {
                ASAN_POISON_MEMORY_REGION(p, bytes);
                _idle.emplace_back(bytes, p);
                _idleBytes += bytes;
                return;
            }
        }
        ::operator delete(p, kAlign);
    }

  private:
    std::mutex _mutex;
    std::vector<std::pair<std::size_t, void *>> _idle;
    std::size_t _idleBytes = 0;
};

/** Never destroyed: a static Cache may outlive any static pool. */
StorePool &
storePool()
{
    static StorePool *const pool = new StorePool;
    return *pool;
}

/** Age each of the L ranks at @p ranks younger than @p r by one. */
template <unsigned L>
void
ageYounger(std::uint8_t *ranks, std::uint8_t r)
{
    typedef std::uint8_t RankV __attribute__((vector_size(L)));
    // rank += (rank < r): a true lane is all-ones, so subtracting it
    // adds one. kInvalid, padding included, never ages.
    RankV x;
    std::memcpy(&x, ranks, sizeof(x));
    x -= (RankV)(x < r);
    std::memcpy(ranks, &x, sizeof(x));
}

} // namespace

void
Cache::StoreRelease::operator()(std::uint8_t *store) const
{
    storePool().release(store, bytes);
}

const CacheConfig &
Cache::validated(const CacheConfig &cfg)
{
    if (cfg.ways == 0 || cfg.lineBytes == 0)
        fatal("cache '", cfg.name, "' has zero ways or zero-byte lines");
    if (cfg.ways > 254)
        fatal("cache '", cfg.name, "' has ", cfg.ways,
              " ways; one-byte recency ranks allow at most 254");
    if (cfg.sets() == 0)
        fatal("cache '", cfg.name, "' has zero sets: size ",
              cfg.sizeBytes, " B, ", cfg.ways, " ways, ", cfg.lineBytes,
              " B lines");
    if (cfg.sizeBytes % (static_cast<std::uint64_t>(cfg.ways) *
                         cfg.lineBytes) != 0)
        fatal("cache '", cfg.name,
              "' size is not a multiple of ways*lineBytes");
    return cfg;
}

Cache::Layout
Cache::layoutFor(std::uint32_t ways, bool narrow)
{
    Layout l;
    l.narrow = narrow;
    if (narrow) {
        // Packed: the vector steps narrow at the end of the set instead.
        l.tagSlots = ways;
        l.rankByte = 2 * ways;
        l.rankSlots = ways;
    } else {
        // Padded, so every step is a whole vector.
        l.tagSlots = roundUp(ways, 4);
        l.rankByte = 4 * l.tagSlots;
        l.rankSlots = roundUp(ways, 16);
    }
    l.setBytes = roundUp(l.rankByte + l.rankSlots, 64);
    return l;
}

Cache::Layout
Cache::initialLayout(std::uint32_t ways)
{
    const Layout narrow = layoutFor(ways, true);
    const Layout wide = layoutFor(ways, false);
    return narrow.setBytes == 64 && wide.setBytes > 64 ? narrow : wide;
}

Cache::Cache(const CacheConfig &cfg)
    : _cfg(validated(cfg)), _sets(cfg.sets()), _ways(cfg.ways),
      _layout(initialLayout(cfg.ways)), _lineDiv(cfg.lineBytes),
      _setDiv(_sets), _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _store(nullptr, StoreRelease{_sets * _layout.setBytes}),
      _dirty((_sets + 63) / 64, 0)
{
    // Clean: every rank kInvalid, every set empty.
    _store.reset(static_cast<std::uint8_t *>(
        storePool().acquire(_store.get_deleter().bytes)));
}

Cache::~Cache()
{
    cleanDirtySets();
}

void
Cache::cleanDirtySets()
{
    // Consecutive dirty sets are one span of the store: one memset per
    // run, so a fully dirty store costs what one fill of it does.
    const std::size_t setBytes = _layout.setBytes;
    std::uint8_t *const store = _store.get();
    std::uint64_t begin = 0; // pending run of dirty sets [begin, end)
    std::uint64_t end = 0;
    for (std::size_t w = 0; w < _dirty.size(); ++w) {
        std::uint64_t bits = _dirty[w];
        _dirty[w] = 0;
        while (bits) {
            const unsigned lo = __builtin_ctzll(bits);
            const std::uint64_t cleanAbove = ~(bits >> lo);
            const unsigned len =
                cleanAbove ? __builtin_ctzll(cleanAbove) : 64 - lo;
            const std::uint64_t first = w * 64 + lo;
            if (first != end) {
                std::memset(store + begin * setBytes, 0xFF,
                            (end - begin) * setBytes);
                begin = first;
            }
            end = first + len;
            bits = lo + len < 64 ? bits & (~std::uint64_t{0} << (lo + len))
                                 : 0;
        }
    }
    std::memset(store + begin * setBytes, 0xFF, (end - begin) * setBytes);
}

void
Cache::widen()
{
    const Layout wide = layoutFor(_ways, false);
    const std::size_t bytes = _sets * wide.setBytes;
    std::unique_ptr<std::uint8_t[], StoreRelease> store(
        static_cast<std::uint8_t *>(storePool().acquire(bytes)),
        StoreRelease{bytes});
    // Only dirty sets hold anything; the rest of both stores is clean.
    for (std::size_t i = 0; i < _dirty.size(); ++i) {
        for (std::uint64_t bits = _dirty[i]; bits; bits &= bits - 1) {
            const std::uint64_t set = i * 64 + __builtin_ctzll(bits);
            const std::uint8_t *from = blockOf(set);
            std::uint8_t *to = store.get() + set * wide.setBytes;
            const auto *fromTags =
                reinterpret_cast<const std::uint16_t *>(from);
            auto *toTags = reinterpret_cast<std::uint32_t *>(to);
            for (std::uint32_t w = 0; w < _ways; ++w) {
                const std::uint8_t rank = from[_layout.rankByte + w];
                to[wide.rankByte + w] = rank;
                if (rank != kInvalid)
                    toTags[w] = fromTags[w];
            }
        }
    }
    // The narrow store goes back clean; the bitmap now describes the
    // wide one, which holds exactly the same sets.
    const std::vector<std::uint64_t> dirty = _dirty;
    cleanDirtySets();
    _dirty = dirty;
    _store = std::move(store);
    _layout = wide;
}

void
Cache::panicTagTooWide(Addr addr) const
{
    panic("cache '", _cfg.name, "': address ", addr,
          " needs a tag wider than 32 bits");
}

Cache::SetScan
Cache::locate(Addr addr) const
{
    const std::uint64_t line = _lineDiv.quot(addr);
    const std::uint64_t tag = _setDiv.quot(line);
    if (tag > std::numeric_limits<std::uint32_t>::max())
        panicTagTooWide(addr);
    return SetScan{line - tag * _sets, static_cast<std::uint32_t>(tag), 0, 0};
}

bool
Cache::narrowFor(std::uint32_t tag)
{
    if (_layout.narrow && tag > std::numeric_limits<std::uint16_t>::max())
        widen();
    return _layout.narrow;
}

/**
 * One pass finds the hit and the victim, Lanes ways per vector step.
 * The valid ways are a prefix, so the first invalid way is the valid
 * count. Sums, not branches: at most one valid way matches, at most
 * one has rank ways-1, and padding ways are invalid.
 */
template <typename Tag, unsigned Lanes>
struct Cache::ScanLanes
{
    typedef Tag TagV __attribute__((vector_size(Lanes * sizeof(Tag))));
    typedef std::uint8_t RankV __attribute__((vector_size(Lanes)));

    TagV key;
    TagV last;
    TagV way1;         //!< way index + 1
    TagV hit1 = {};    //!< hit way + 1 in its lane
    TagV oldest1 = {}; //!< way of rank ways-1, + 1, in its lane
    TagV valid = {};   //!< count of valid ways in the lane

    ScanLanes(Tag tag, Tag lastRank, std::uint32_t firstWay)
        : key(TagV{} + tag), last(TagV{} + lastRank)
    {
        for (unsigned i = 0; i < Lanes; ++i)
            way1[i] = static_cast<Tag>(firstWay + i + 1);
    }

    /** Ways [w, w + Lanes) of the set with these tags and ranks. */
    void
    step(const std::uint8_t *tags, const std::uint8_t *ranks,
         std::uint32_t w)
    {
        TagV t;
        std::memcpy(&t, tags + w * sizeof(Tag), sizeof(t));
        RankV r8;
        std::memcpy(&r8, ranks + w, sizeof(r8));
        const TagV r = __builtin_convertvector(r8, TagV);
        const TagV isValid = (TagV)(r != kInvalid);
        hit1 += (TagV)(t == key) & isValid & way1;
        oldest1 += (TagV)(r == last) & way1;
        valid -= isValid;
        way1 += Lanes;
    }

    static std::uint32_t
    sum(TagV v)
    {
        std::uint32_t s = 0;
        for (unsigned i = 0; i < Lanes; ++i)
            s += v[i];
        return s;
    }
};

template <typename Tag>
Cache::SetScan
Cache::scan(std::uint64_t set, std::uint32_t tag) const
{
    // A 16-byte vector per step. The padded 32-bit layout is whole
    // steps; the packed 16-bit one may end in a half step and up to
    // three single ways.
    constexpr unsigned kLanes = 16 / sizeof(Tag);
    const std::uint8_t *tags = blockOf(set);
    const std::uint8_t *ranks = tags + _layout.rankByte;
    const Tag key = static_cast<Tag>(tag);
    const Tag last = static_cast<Tag>(_ways - 1);
    const std::uint32_t slots = _layout.tagSlots;

    ScanLanes<Tag, kLanes> full(key, last, 0);
    std::uint32_t w = 0;
    for (; w + kLanes <= slots; w += kLanes)
        full.step(tags, ranks, w);
    std::uint32_t h = full.sum(full.hit1);
    std::uint32_t o = full.sum(full.oldest1);
    std::uint32_t valid = full.sum(full.valid);
    if constexpr (sizeof(Tag) == sizeof(std::uint16_t)) {
        if (w + kLanes / 2 <= slots) {
            ScanLanes<Tag, kLanes / 2> half(key, last, w);
            half.step(tags, ranks, w);
            h += half.sum(half.hit1);
            o += half.sum(half.oldest1);
            valid += half.sum(half.valid);
            w += kLanes / 2;
        }
        // At most three ways are left.
        for (int k = 0; k < 3 && w < slots; ++k, ++w) {
            Tag t;
            std::memcpy(&t, tags + w * sizeof(Tag), sizeof(t));
            const bool isValid = ranks[w] != kInvalid;
            h += isValid && t == key ? w + 1 : 0;
            o += ranks[w] == last ? w + 1 : 0;
            valid += isValid;
        }
    }
    return SetScan{set, tag, h ? h - 1 : _ways, o ? o - 1 : valid};
}

template <typename Tag>
void
Cache::promote(std::uint64_t set, std::uint32_t way)
{
    // Every way younger than @p way ages by one, sixteen ranks per
    // step. The packed 16-bit layout ends in shorter steps.
    std::uint8_t *ranks = blockOf(set) + _layout.rankByte;
    const std::uint8_t r = ranks[way];
    const std::uint32_t slots = _layout.rankSlots;
    std::uint32_t w = 0;
    for (; w + 16 <= slots; w += 16)
        ageYounger<16>(ranks + w, r);
    if constexpr (sizeof(Tag) == sizeof(std::uint16_t)) {
        if (w + 8 <= slots) {
            ageYounger<8>(ranks + w, r);
            w += 8;
        }
        if (w + 4 <= slots) {
            ageYounger<4>(ranks + w, r);
            w += 4;
        }
        for (int k = 0; k < 3 && w < slots; ++k, ++w)
            ranks[w] += ranks[w] < r;
    }
    ranks[way] = 0;
}

template <typename Tag>
CacheAccessResult
Cache::install(const SetScan &s)
{
    std::uint8_t *block = blockOf(s.set);
    Tag *tags = reinterpret_cast<Tag *>(block);
    const std::uint8_t *ranks = block + _layout.rankByte;
    std::uint32_t way = s.victim;
    if (_cfg.policy == ReplacementPolicy::Random && ranks[way] != kInvalid)
        way = static_cast<std::uint32_t>(_rng.nextBelow(_ways));

    CacheAccessResult res;
    res.hit = false;
    res.evictedValid = ranks[way] != kInvalid;
    // The valid ways are a prefix: an invalid way 0 is an empty set.
    if (!res.evictedValid && way == 0)
        markDirty(s.set);
    res.evictedAddr =
        res.evictedValid
            ? (std::uint64_t{tags[way]} * _sets + s.set) * _cfg.lineBytes
            : 0;
    tags[way] = static_cast<Tag>(s.tag);
    promote<Tag>(s.set, way);
    return res;
}

template <typename Tag>
CacheAccessResult
Cache::lookup(std::uint64_t set, std::uint32_t tag, bool counted)
{
    const SetScan s = scan<Tag>(set, tag);
    if (s.hitWay != _ways) {
        // FIFO and Random order by insertion only, and a fill of a
        // resident line is no use.
        if (counted && _cfg.policy == ReplacementPolicy::Lru)
            promote<Tag>(set, s.hitWay);
        return CacheAccessResult{true, false, 0};
    }
    _misses += counted;
    return install<Tag>(s);
}

CacheAccessResult
Cache::access(Addr addr)
{
    ++_accesses;
    const SetScan at = locate(addr);
    return narrowFor(at.tag) ? lookup<std::uint16_t>(at.set, at.tag, true)
                             : lookup<std::uint32_t>(at.set, at.tag, true);
}

bool
Cache::probe(Addr addr) const
{
    const SetScan at = locate(addr);
    if (!_layout.narrow)
        return scan<std::uint32_t>(at.set, at.tag).hitWay != _ways;
    // Every resident tag of a 16-bit store fits in 16 bits.
    return at.tag <= std::numeric_limits<std::uint16_t>::max() &&
           scan<std::uint16_t>(at.set, at.tag).hitWay != _ways;
}

CacheAccessResult
Cache::fill(Addr addr)
{
    const SetScan at = locate(addr);
    return narrowFor(at.tag) ? lookup<std::uint16_t>(at.set, at.tag, false)
                             : lookup<std::uint32_t>(at.set, at.tag, false);
}

template <typename Tag>
void
Cache::writeRun(std::uint64_t set, std::uint64_t tag0, std::uint64_t count)
{
    // Clean: every way is invalid. Line i goes to way i while the set
    // has room, and from then on evicts rank ways-1, line i - ways, in
    // way i % ways. So only the last min(count, ways) lines remain,
    // line i with rank count-1-i.
    std::uint8_t *block = blockOf(set);
    Tag *tags = reinterpret_cast<Tag *>(block);
    std::uint8_t *ranks = block + _layout.rankByte;
    std::uint64_t i = count - std::min<std::uint64_t>(count, _ways);
    std::uint32_t way = static_cast<std::uint32_t>(i % _ways);
    for (; i < count; ++i) {
        tags[way] = static_cast<Tag>(tag0 + i);
        ranks[way] = static_cast<std::uint8_t>(count - 1 - i);
        if (++way == _ways)
            way = 0;
    }
    markDirty(set);
}

void
Cache::fillRun(Addr addr, std::uint64_t lines)
{
    if (lines == 0)
        return;
    const std::uint64_t first = _lineDiv.quot(addr);
    // Tags grow with the line, so the per-line loop panics exactly
    // when the run reaches line `wide`, the first with a 33-bit tag.
    // (_sets < 2^32: a store of 2^32 sets would not fit in memory.)
    const std::uint64_t wide = _sets << 32;
    if (first >= wide)
        panicTagTooWide(addr);
    if (lines > wide - first)
        panicTagTooWide(wide * _cfg.lineBytes);
    // The per-line loop would widen on reaching the first line with a
    // 17-bit tag. Widening keeps every set's state, so widening up
    // front, if the last line needs it, ends in the same state.
    const bool narrow = narrowFor(
        static_cast<std::uint32_t>(_setDiv.quot(first + lines - 1)));

    if (_cfg.policy == ReplacementPolicy::Random) {
        // One victim stream for the whole cache: keep address order.
        for (std::uint64_t k = 0; k < lines; ++k)
            fill((first + k) * _cfg.lineBytes);
        return;
    }
    // LRU and FIFO sets never interact, so the run can go set by set:
    // run line j + i*_sets is the i-th of its set, with tag tag0 + i.
    std::uint64_t tag0 = _setDiv.quot(first);
    std::uint64_t set = first - tag0 * _sets;
    const std::uint64_t touched = std::min(lines, _sets);
    for (std::uint64_t j = 0; j < touched; ++j) {
        const std::uint64_t count = (lines - 1 - j) / _sets + 1;
        if (isDirty(set)) {
            for (std::uint64_t i = 0; i < count; ++i)
                fill((first + j + i * _sets) * _cfg.lineBytes);
        } else if (narrow) {
            writeRun<std::uint16_t>(set, tag0, count);
        } else {
            writeRun<std::uint32_t>(set, tag0, count);
        }
        if (++set == _sets) {
            set = 0;
            ++tag0;
        }
    }
}

void
Cache::flush()
{
    cleanDirtySets();
}

void
Cache::resetStats()
{
    _accesses = 0;
    _misses = 0;
}

} // namespace centaur
