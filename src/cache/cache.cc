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
typedef std::uint32_t U32x4 __attribute__((vector_size(16)));
typedef std::uint8_t U8x4 __attribute__((vector_size(4)));
typedef std::uint8_t U8x16 __attribute__((vector_size(16)));

std::uint32_t
roundUp(std::uint32_t n, std::uint32_t to)
{
    return (n + to - 1) / to * to;
}

/**
 * Tag stores of destroyed caches, kept for the next cache of the same
 * size. Sweeps and serving runs build and drop systems one after
 * another, each with a 3.7 MB LLC store. Handed back to malloc, such a
 * store either returns to the system (and its pages fault again on the
 * next build) or stays on the heap, depending on glibc's trim
 * heuristics and on which small allocations happen to sit next to it;
 * so build time and peak memory moved by whole stores with the seed.
 * Kept here, the memory held is the most stores ever live at once,
 * plus at most kMaxBytes of idle ones. Idle stores are poisoned under
 * AddressSanitizer, so a use after free still reports.
 *
 * Every store the pool hands out is clean, every byte 0xFF: a fresh
 * one is filled here, and a cache resets the sets it dirtied before
 * releasing its store (Cache::cleanDirtySets).
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

} // namespace

void
Cache::StoreRelease::operator()(std::uint32_t *store) const
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

Cache::Cache(const CacheConfig &cfg)
    : _cfg(validated(cfg)), _sets(cfg.sets()), _ways(cfg.ways),
      _rankOffset(roundUp(cfg.ways, 4)),
      _setWords(roundUp(_rankOffset + roundUp(cfg.ways, 16) / 4, 16)),
      _lineDiv(cfg.lineBytes),
      _setDiv(_sets), _hitLatency(ticksFromNs(cfg.hitLatencyNs)),
      _store(nullptr, StoreRelease{_sets * _setWords * sizeof(std::uint32_t)}),
      _dirty((_sets + 63) / 64, 0)
{
    // Clean: every rank kInvalid, every set empty.
    _store.reset(static_cast<std::uint32_t *>(
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
    const std::size_t setBytes = _setWords * sizeof(std::uint32_t);
    unsigned char *const store =
        reinterpret_cast<unsigned char *>(_store.get());
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
Cache::panicTagTooWide(Addr addr) const
{
    panic("cache '", _cfg.name, "': address ", addr,
          " needs a tag wider than 32 bits");
}

Cache::SetScan
Cache::scan(Addr addr) const
{
    const std::uint64_t line = _lineDiv.quot(addr);
    const std::uint64_t tag = _setDiv.quot(line);
    if (tag > std::numeric_limits<std::uint32_t>::max())
        panicTagTooWide(addr);
    SetScan s;
    s.set = line - tag * _sets;
    s.tag = static_cast<std::uint32_t>(tag);

    // One pass finds the hit and the victim, four ways per step. The
    // valid ways are a prefix, so the first invalid way is the valid
    // count. Sums, not branches: at most one valid way matches, at
    // most one has rank ways-1, and padding ways are invalid.
    const std::uint32_t *tags = tagsOf(s.set);
    const std::uint8_t *ranks = ranksOf(tags);
    const U32x4 key = U32x4{} + s.tag;
    const U32x4 last = U32x4{} + (_ways - 1);
    U32x4 way1 = {1, 2, 3, 4}; // way index + 1
    U32x4 hit1 = {};           // hit way + 1 in its lane
    U32x4 oldest1 = {};        // way of rank ways-1, + 1, in its lane
    U32x4 invalid = {};        // minus the count of valid ways
    for (std::uint32_t w = 0; w < _ways; w += 4) {
        U32x4 t;
        std::memcpy(&t, tags + w, sizeof(t));
        U8x4 r8;
        std::memcpy(&r8, ranks + w, sizeof(r8));
        const U32x4 r = __builtin_convertvector(r8, U32x4);
        const U32x4 valid = (U32x4)(r != kInvalid);
        hit1 += (U32x4)(t == key) & valid & way1;
        oldest1 += (U32x4)(r == last) & way1;
        invalid += valid;
        way1 += 4;
    }
    const std::uint32_t h = hit1[0] + hit1[1] + hit1[2] + hit1[3];
    const std::uint32_t o = oldest1[0] + oldest1[1] + oldest1[2] + oldest1[3];
    const std::uint32_t valid =
        0u - (invalid[0] + invalid[1] + invalid[2] + invalid[3]);
    s.hitWay = h ? h - 1 : _ways;
    s.victim = o ? o - 1 : valid;
    return s;
}

void
Cache::promote(std::uint64_t set, std::uint32_t way)
{
    std::uint8_t *ranks = ranksOf(tagsOf(set));
    // rank += (rank < r), sixteen ranks per step (a true lane is
    // all-ones, so subtracting it adds one): every way younger than
    // @p way ages by one; kInvalid, padding included, never does.
    const std::uint8_t r = ranks[way];
    const U8x16 rv = U8x16{} + r;
    for (std::uint32_t w = 0; w < _ways; w += 16) {
        U8x16 x;
        std::memcpy(&x, ranks + w, sizeof(x));
        x -= (U8x16)(x < rv);
        std::memcpy(ranks + w, &x, sizeof(x));
    }
    ranks[way] = 0;
}

CacheAccessResult
Cache::install(const SetScan &s)
{
    std::uint32_t *tags = tagsOf(s.set);
    const std::uint8_t *ranks = ranksOf(tags);
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
        res.evictedValid ? (tags[way] * _sets + s.set) * _cfg.lineBytes : 0;
    tags[way] = s.tag;
    promote(s.set, way);
    return res;
}

CacheAccessResult
Cache::access(Addr addr)
{
    ++_accesses;
    const SetScan s = scan(addr);
    if (s.hitWay != _ways) {
        // FIFO and Random order by insertion only.
        if (_cfg.policy == ReplacementPolicy::Lru)
            promote(s.set, s.hitWay);
        return CacheAccessResult{true, false, 0};
    }
    ++_misses;
    return install(s);
}

bool
Cache::probe(Addr addr) const
{
    return scan(addr).hitWay != _ways;
}

CacheAccessResult
Cache::fill(Addr addr)
{
    const SetScan s = scan(addr);
    if (s.hitWay != _ways)
        return CacheAccessResult{true, false, 0};
    return install(s);
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
        } else {
            // Clean: every way is invalid. Line i goes to way i while
            // the set has room, and from then on evicts rank ways-1,
            // line i - ways, in way i % ways. So only the last
            // min(count, ways) lines remain, line i with rank
            // count-1-i.
            std::uint32_t *tags = tagsOf(set);
            std::uint8_t *ranks = ranksOf(tags);
            std::uint64_t i = count - std::min<std::uint64_t>(count, _ways);
            std::uint32_t way = static_cast<std::uint32_t>(i % _ways);
            for (; i < count; ++i) {
                tags[way] = static_cast<std::uint32_t>(tag0 + i);
                ranks[way] = static_cast<std::uint8_t>(count - 1 - i);
                if (++way == _ways)
                    way = 0;
            }
            markDirty(set);
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
