#include "cachetier/cache_tier.hh"

#include <algorithm>
#include <variant>

#include "dlrm/workload.hh"
#include "sim/spec_number.hh"

namespace centaur {

namespace {

constexpr const char *kGrammar =
    "cache:<mb>[:<lru|lfu|slru>[:ghost]]";

bool
failWith(std::string *error, const std::string &part,
         const std::string &why)
{
    if (error)
        *error = "bad cache spec '" + part + "': " + why +
                 "; grammar: " + kGrammar;
    return false;
}

// ------------------------------------------------------------------
// Eviction policies. Each is a flat slab of entries indexed by a
// FlatIndex; find() is the only hash probe on the hit path. Keys are
// `(table << 32) | row`. CacheTier::annotateWith is instantiated per
// policy, so none of these calls is virtual.
// ------------------------------------------------------------------

/** Plain LRU: one recency list, front = MRU. */
class LruPolicy
{
  public:
    explicit LruPolicy(std::uint64_t capacity) : _lru(capacity) {}

    void prefetch(std::uint64_t key) const { _lru.prefetch(key); }
    std::uint32_t find(std::uint64_t key) const { return _lru.find(key); }
    void touch(std::uint32_t slot) { _lru.moveToFront(slot); }
    void insert(std::uint64_t key) { _lru.pushFront(key); }
    std::uint64_t evict() { return _lru.popBack(); }
    std::size_t size() const { return _lru.size(); }
    std::vector<std::uint64_t> keys() const { return _lru.sortedKeys(); }

  private:
    FlatLru _lru;
};

/**
 * LFU with FIFO tie-break: victims are the lowest-frequency keys,
 * oldest insertion first. A 4-ary min-heap ordered on the unique
 * (freq, seq) pair, with each slab entry tracking its heap position,
 * so every choice is total-ordered and deterministic. seq is the
 * insertion sequence and survives touches: a key whose frequency
 * rises keeps its insertion rank among keys of the new frequency,
 * which is why this is a heap and not O(1) frequency buckets.
 */
class LfuPolicy
{
  public:
    explicit LfuPolicy(std::uint64_t capacity)
        : _slab(capacity), _capacity(capacity)
    {
    }

    void prefetch(std::uint64_t key) const { _index.prefetch(key); }
    std::uint32_t find(std::uint64_t key) const { return _index.find(key); }

    void
    touch(std::uint32_t slot)
    {
        const std::uint32_t pos = _slab[slot].heapPos;
        ++_heap[pos].freq;
        siftDown(pos);
    }

    void
    insert(std::uint64_t key)
    {
        const std::uint32_t slot = _slab.alloc();
        _slab[slot].key = key;
        _index.insert(key, slot);
        if (_heap.size() == _heap.capacity())
            _heap.reserve(cappedGrowth(_heap.size(), _capacity));
        _heap.push_back(HeapItem{1, ++_seq, slot});
        siftUp(static_cast<std::uint32_t>(_heap.size() - 1));
    }

    std::uint64_t
    evict()
    {
        const std::uint32_t slot = _heap.front().slot;
        const std::uint64_t victim = _slab[slot].key;
        _heap.front() = _heap.back();
        _heap.pop_back();
        if (!_heap.empty())
            siftDown(0);
        _index.erase(victim);
        _slab.release(slot);
        return victim;
    }

    std::size_t size() const { return _heap.size(); }

    std::vector<std::uint64_t>
    keys() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(_heap.size());
        for (const HeapItem &item : _heap)
            out.push_back(_slab[item.slot].key);
        return out;
    }

  private:
    static constexpr std::uint32_t kArity = 4;

    struct Node
    {
        std::uint64_t key;
        std::uint32_t heapPos;
        std::uint32_t next; //!< free-list link
    };

    struct HeapItem
    {
        std::uint64_t freq;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator<(const HeapItem &o) const
        {
            return freq != o.freq ? freq < o.freq : seq < o.seq;
        }
    };

    void
    put(std::uint32_t pos, const HeapItem &item)
    {
        _heap[pos] = item;
        _slab[item.slot].heapPos = pos;
    }

    void
    siftUp(std::uint32_t pos)
    {
        const HeapItem item = _heap[pos];
        while (pos > 0) {
            const std::uint32_t parent = (pos - 1) / kArity;
            if (!(item < _heap[parent]))
                break;
            put(pos, _heap[parent]);
            pos = parent;
        }
        put(pos, item);
    }

    void
    siftDown(std::uint32_t pos)
    {
        const HeapItem item = _heap[pos];
        const auto n = static_cast<std::uint32_t>(_heap.size());
        for (;;) {
            const std::uint32_t first = pos * kArity + 1;
            if (first >= n)
                break;
            const std::uint32_t last = std::min(first + kArity, n);
            std::uint32_t best = first;
            for (std::uint32_t c = first + 1; c < last; ++c)
                if (_heap[c] < _heap[best])
                    best = c;
            if (!(_heap[best] < item))
                break;
            put(pos, _heap[best]);
            pos = best;
        }
        put(pos, item);
    }

    FlatIndex _index;
    Slab<Node> _slab;
    std::vector<HeapItem> _heap;
    std::uint64_t _capacity;
    std::uint64_t _seq = 0;
};

/**
 * Segmented LRU: new rows enter a probation segment; a hit promotes
 * into a protected segment capped at 4/5 of the resident entries,
 * demoting the protected LRU back to probation MRU when full.
 * Victims come from the probation tail (protected tail only when
 * probation is empty), so scan traffic cannot flush proven-hot rows.
 * Both segments are lists threaded through one slab; each entry
 * carries its segment bit.
 */
class SlruPolicy
{
  public:
    explicit SlruPolicy(std::uint64_t capacity) : _slab(capacity) {}

    void prefetch(std::uint64_t key) const { _index.prefetch(key); }
    std::uint32_t find(std::uint64_t key) const { return _index.find(key); }

    void
    touch(std::uint32_t slot)
    {
        if (_slab[slot].protectedSeg) {
            _protected.moveToFront(_slab, slot);
            return;
        }
        // Promote probation -> protected.
        _probation.unlink(_slab, slot);
        _protected.pushFront(_slab, slot);
        _slab[slot].protectedSeg = true;
        const std::size_t cap = std::max<std::size_t>(1, size() * 4 / 5);
        if (_protected.size > cap) {
            // Demote the protected LRU back to probation MRU.
            const std::uint32_t demoted = _protected.tail;
            _protected.unlink(_slab, demoted);
            _probation.pushFront(_slab, demoted);
            _slab[demoted].protectedSeg = false;
        }
    }

    void
    insert(std::uint64_t key)
    {
        const std::uint32_t slot = _slab.alloc();
        _slab[slot].key = key;
        _slab[slot].protectedSeg = false;
        _index.insert(key, slot);
        _probation.pushFront(_slab, slot);
    }

    std::uint64_t
    evict()
    {
        SlabList &seg = _probation.size ? _probation : _protected;
        const std::uint32_t slot = seg.tail;
        const std::uint64_t victim = _slab[slot].key;
        seg.unlink(_slab, slot);
        _index.erase(victim);
        _slab.release(slot);
        return victim;
    }

    std::size_t size() const { return _probation.size + _protected.size; }

    std::vector<std::uint64_t>
    keys() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(size());
        for (const SlabList *seg : {&_probation, &_protected})
            for (std::uint32_t s = seg->head; s != kNoSlot;
                 s = _slab[s].next)
                out.push_back(_slab[s].key);
        return out;
    }

  private:
    struct Node
    {
        std::uint64_t key;
        std::uint32_t prev;
        std::uint32_t next;
        bool protectedSeg;
    };

    FlatIndex _index;
    Slab<Node> _slab;
    SlabList _probation;
    SlabList _protected;
};

} // namespace

const char *
cachePolicyName(CachePolicy p)
{
    switch (p) {
    case CachePolicy::Lfu:
        return "lfu";
    case CachePolicy::Slru:
        return "slru";
    case CachePolicy::Lru:
    default:
        return "lru";
    }
}

const char *
cacheTierGrammar()
{
    return kGrammar;
}

std::vector<std::string>
exampleCacheParts()
{
    return {
        "cache:64",
        "cache:16:lfu",
        "cache:32:slru:ghost",
    };
}

bool
tryParseCachePart(const std::string &part, CacheTierConfig *out,
                  std::string *error)
{
    static const std::string prefix = "cache:";
    if (part.compare(0, prefix.size(), prefix) != 0)
        return failWith(error, part, "expected 'cache:' prefix");

    // Split the payload on ':' into at most three tokens.
    std::vector<std::string> tokens;
    std::size_t pos = prefix.size();
    while (pos <= part.size()) {
        const std::size_t next = part.find(':', pos);
        if (next == std::string::npos) {
            tokens.push_back(part.substr(pos));
            break;
        }
        tokens.push_back(part.substr(pos, next - pos));
        pos = next + 1;
    }
    if (tokens.empty() || tokens[0].empty())
        return failWith(error, part, "missing <mb> budget");
    if (tokens.size() > 3)
        return failWith(error, part,
                        "too many ':' fields (at most "
                        "<mb>:<policy>:ghost)");

    CacheTierConfig cfg;
    double mb = 0.0;
    if (!parseSpecNumber(tokens[0], &mb) || mb < 0.0)
        return failWith(error, part,
                        "bad <mb> budget '" + tokens[0] +
                            "' (non-negative number)");
    cfg.capacityMB = mb;

    if (tokens.size() >= 2) {
        const std::string &policy = tokens[1];
        if (policy == "lru")
            cfg.policy = CachePolicy::Lru;
        else if (policy == "lfu")
            cfg.policy = CachePolicy::Lfu;
        else if (policy == "slru")
            cfg.policy = CachePolicy::Slru;
        else
            return failWith(error, part,
                            "unknown policy '" + policy +
                                "' (lru | lfu | slru)");
    }
    if (tokens.size() == 3) {
        if (tokens[2] != "ghost")
            return failWith(error, part,
                            "unknown admission token '" + tokens[2] +
                                "' (ghost)");
        cfg.ghost = true;
    }

    // A zero budget is "no tier": normalize to the disabled default
    // so cache:0 specs stay byte-identical to their no-cache twins.
    if (out)
        *out = cfg.enabled() ? cfg : CacheTierConfig{};
    return true;
}

std::string
cachePartName(const CacheTierConfig &cfg)
{
    if (!cfg.enabled())
        return "";
    std::string name = "cache:" + formatSpecNumber(cfg.capacityMB);
    if (cfg.policy != CachePolicy::Lru || cfg.ghost)
        name += std::string(":") + cachePolicyName(cfg.policy);
    if (cfg.ghost)
        name += ":ghost";
    return name;
}

CacheStats &
CacheStats::operator+=(const CacheStats &o)
{
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    rejectedFills += o.rejectedFills;
    bytesResident += o.bytesResident;
    fabricSavedUs += o.fabricSavedUs;
    return *this;
}

// ------------------------------------------------------------------
// CacheTier.
// ------------------------------------------------------------------

struct CacheTier::Policy
{
    std::variant<LruPolicy, LfuPolicy, SlruPolicy> impl;

    static std::unique_ptr<Policy>
    make(CachePolicy p, std::uint64_t capacity)
    {
        switch (p) {
        case CachePolicy::Lfu:
            return std::make_unique<Policy>(
                Policy{LfuPolicy(capacity)});
        case CachePolicy::Slru:
            return std::make_unique<Policy>(
                Policy{SlruPolicy(capacity)});
        case CachePolicy::Lru:
        default:
            return std::make_unique<Policy>(
                Policy{LruPolicy(capacity)});
        }
    }
};

CacheTier::CacheTier(const CacheTierConfig &cfg,
                     std::uint32_t row_bytes)
    : _cfg(cfg), _rowBytes(std::max<std::uint32_t>(1, row_bytes)),
      _maxRows(static_cast<std::uint64_t>(
                   cfg.capacityMB *
                   static_cast<double>(kMiB)) /
               _rowBytes),
      _policy(Policy::make(cfg.policy, _maxRows)), _ghostCap(_maxRows),
      _ghost(_ghostCap)
{
}

CacheTier::~CacheTier() = default;

bool
CacheTier::admit(std::uint64_t key)
{
    if (!_cfg.ghost)
        return true;
    const std::uint32_t slot = _ghost.find(key);
    if (slot != kNoSlot) {
        // Second touch inside the ghost window: admit for real.
        _ghost.erase(slot);
        return true;
    }
    ghostInsert(key);
    ++_rejectedFills;
    return false;
}

void
CacheTier::ghostInsert(std::uint64_t key)
{
    if (_ghostCap == 0)
        return;
    const std::uint32_t slot = _ghost.find(key);
    if (slot != kNoSlot) {
        _ghost.moveToFront(slot);
        return;
    }
    // Dropping the LRU before the push keeps the ghost within
    // _ghostCap; the survivors are the same as push-then-drop.
    if (_ghost.size() >= _ghostCap)
        _ghost.popBack();
    _ghost.pushFront(key);
}

template <class P>
void
CacheTier::annotateWith(P &policy, const InferenceBatch &batch,
                        Access &acc)
{
    const auto keyOf = [](std::size_t t, std::uint64_t row) {
        return (static_cast<std::uint64_t>(t) << 32) | (row & 0xffffffffULL);
    };
    // Start every first probe of the batch up front so their host
    // cache misses overlap instead of serializing in the loop below.
    for (std::size_t t = 0; t < batch.indices.size(); ++t)
        for (const std::uint64_t row : batch.indices[t])
            policy.prefetch(keyOf(t, row));

    for (std::size_t t = 0; t < batch.indices.size(); ++t) {
        const std::vector<std::uint64_t> &rows = batch.indices[t];
        std::vector<std::uint8_t> &mask = batch.cacheHit[t];
        mask.assign(rows.size(), 0);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const std::uint64_t key = keyOf(t, rows[i]);
            const std::uint32_t slot = policy.find(key);
            if (slot != kNoSlot) {
                policy.touch(slot);
                mask[i] = 1;
                ++acc.hits;
                continue;
            }
            ++acc.misses;
            if (!admit(key))
                continue;
            while (policy.size() >= _maxRows) {
                const std::uint64_t victim = policy.evict();
                ++_evictions;
                if (_cfg.ghost)
                    ghostInsert(victim);
            }
            policy.insert(key);
        }
    }
}

CacheTier::Access
CacheTier::annotate(const InferenceBatch &batch)
{
    Access acc;
    batch.cacheHit.assign(batch.indices.size(), {});
    if (_maxRows == 0) {
        // Enabled-but-smaller-than-one-row budgets behave as a
        // pass-through: every lookup misses, nothing fills.
        for (std::size_t t = 0; t < batch.indices.size(); ++t) {
            batch.cacheHit[t].assign(batch.indices[t].size(), 0);
            acc.misses += batch.indices[t].size();
        }
        _misses += acc.misses;
        return acc;
    }
    std::visit([&](auto &policy) { annotateWith(policy, batch, acc); },
               _policy->impl);
    _hits += acc.hits;
    _misses += acc.misses;
    acc.hitBytes = acc.hits * _rowBytes;
    return acc;
}

CacheStats
CacheTier::stats() const
{
    CacheStats s;
    s.hits = _hits;
    s.misses = _misses;
    s.evictions = _evictions;
    s.rejectedFills = _rejectedFills;
    s.bytesResident =
        std::visit([](const auto &p) { return p.size(); }, _policy->impl) *
        _rowBytes;
    s.fabricSavedUs = usFromTicks(_savedTicks);
    return s;
}

std::vector<std::uint64_t>
CacheTier::residentKeys() const
{
    std::vector<std::uint64_t> keys =
        std::visit([](const auto &p) { return p.keys(); }, _policy->impl);
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
CacheTier::reset()
{
    _policy = Policy::make(_cfg.policy, _maxRows);
    _ghost.clear();
    _hits = _misses = _evictions = _rejectedFills = 0;
    _savedTicks = 0;
}

} // namespace centaur
