/**
 * @file
 * Node-based reference hot-row tier for the differential tests: the
 * model CacheTier replaced, kept verbatim in behaviour. Every policy
 * is a std::map keyed by row plus std::list recency nodes (LFU: an
 * ordered std::set of (freq, seq, key) tuples), reached through a
 * virtual interface, and the ghost admission filter is another map
 * plus list. CacheTier's flat slab-and-hash policies must match it
 * call for call: hit mask, Access, stats() and residentKeys().
 */

#ifndef CENTAUR_TESTS_CACHETIER_NAIVE_TIER_HH
#define CENTAUR_TESTS_CACHETIER_NAIVE_TIER_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "dlrm/workload.hh"
#include "sim/units.hh"

namespace centaur {
namespace naive {

/** Ordered set of resident keys with policy bookkeeping. */
class RowCachePolicy
{
  public:
    virtual ~RowCachePolicy() = default;

    virtual bool contains(std::uint64_t key) const = 0;
    virtual void touch(std::uint64_t key) = 0;
    virtual void insert(std::uint64_t key) = 0;
    virtual std::uint64_t evict() = 0;
    virtual std::size_t size() const = 0;
    virtual std::vector<std::uint64_t> keys() const = 0;
};

/** Collect the keys of a key-ordered map. */
template <class Map>
std::vector<std::uint64_t>
mapKeys(const Map &map)
{
    std::vector<std::uint64_t> out;
    out.reserve(map.size());
    for (const auto &kv : map)
        out.push_back(kv.first);
    return out;
}

class LruPolicy final : public RowCachePolicy
{
  public:
    bool
    contains(std::uint64_t key) const override
    {
        return _map.find(key) != _map.end();
    }

    void
    touch(std::uint64_t key) override
    {
        _list.splice(_list.begin(), _list, _map.find(key)->second);
    }

    void
    insert(std::uint64_t key) override
    {
        _list.push_front(key);
        _map.emplace(key, _list.begin());
    }

    std::uint64_t
    evict() override
    {
        const std::uint64_t victim = _list.back();
        _map.erase(victim);
        _list.pop_back();
        return victim;
    }

    std::size_t size() const override { return _map.size(); }
    std::vector<std::uint64_t> keys() const override { return mapKeys(_map); }

  private:
    std::list<std::uint64_t> _list;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator> _map;
};

class LfuPolicy final : public RowCachePolicy
{
  public:
    bool
    contains(std::uint64_t key) const override
    {
        return _map.find(key) != _map.end();
    }

    void
    touch(std::uint64_t key) override
    {
        auto it = _map.find(key);
        _order.erase({it->second.freq, it->second.seq, key});
        ++it->second.freq;
        _order.insert({it->second.freq, it->second.seq, key});
    }

    void
    insert(std::uint64_t key) override
    {
        const Node node{1, ++_seq};
        _map.emplace(key, node);
        _order.insert({node.freq, node.seq, key});
    }

    std::uint64_t
    evict() override
    {
        const std::uint64_t victim = std::get<2>(*_order.begin());
        _order.erase(_order.begin());
        _map.erase(victim);
        return victim;
    }

    std::size_t size() const override { return _map.size(); }
    std::vector<std::uint64_t> keys() const override { return mapKeys(_map); }

  private:
    struct Node
    {
        std::uint64_t freq;
        std::uint64_t seq;
    };

    std::map<std::uint64_t, Node> _map;
    std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
        _order;
    std::uint64_t _seq = 0;
};

class SlruPolicy final : public RowCachePolicy
{
  public:
    bool
    contains(std::uint64_t key) const override
    {
        return _map.find(key) != _map.end();
    }

    void
    touch(std::uint64_t key) override
    {
        auto it = _map.find(key);
        if (it->second.protectedSeg) {
            _protected.splice(_protected.begin(), _protected,
                              it->second.node);
            return;
        }
        _protected.splice(_protected.begin(), _probation,
                          it->second.node);
        it->second.protectedSeg = true;
        const std::size_t cap =
            std::max<std::size_t>(1, size() * 4 / 5);
        if (_protected.size() > cap) {
            auto demoted = std::prev(_protected.end());
            _probation.splice(_probation.begin(), _protected, demoted);
            _map.find(*demoted)->second.protectedSeg = false;
        }
    }

    void
    insert(std::uint64_t key) override
    {
        _probation.push_front(key);
        _map.emplace(key, Node{_probation.begin(), false});
    }

    std::uint64_t
    evict() override
    {
        std::list<std::uint64_t> &seg =
            _probation.empty() ? _protected : _probation;
        const std::uint64_t victim = seg.back();
        _map.erase(victim);
        seg.pop_back();
        return victim;
    }

    std::size_t size() const override { return _map.size(); }
    std::vector<std::uint64_t> keys() const override { return mapKeys(_map); }

  private:
    struct Node
    {
        std::list<std::uint64_t>::iterator node;
        bool protectedSeg;
    };

    std::list<std::uint64_t> _probation;
    std::list<std::uint64_t> _protected;
    std::map<std::uint64_t, Node> _map;
};

/** CacheTier's annotate/stats surface over the node-based policies. */
class NodeTier
{
  public:
    NodeTier(const CacheTierConfig &cfg, std::uint32_t row_bytes)
        : _cfg(cfg), _rowBytes(std::max<std::uint32_t>(1, row_bytes)),
          _maxRows(static_cast<std::uint64_t>(
                       cfg.capacityMB * static_cast<double>(kMiB)) /
                   _rowBytes),
          _ghostCap(_maxRows)
    {
        switch (cfg.policy) {
        case CachePolicy::Lfu:
            _policy = std::make_unique<LfuPolicy>();
            break;
        case CachePolicy::Slru:
            _policy = std::make_unique<SlruPolicy>();
            break;
        case CachePolicy::Lru:
        default:
            _policy = std::make_unique<LruPolicy>();
            break;
        }
    }

    CacheTier::Access
    annotate(const InferenceBatch &batch)
    {
        CacheTier::Access acc;
        batch.cacheHit.assign(batch.indices.size(), {});
        if (_maxRows == 0) {
            for (std::size_t t = 0; t < batch.indices.size(); ++t) {
                batch.cacheHit[t].assign(batch.indices[t].size(), 0);
                acc.misses += batch.indices[t].size();
            }
            _misses += acc.misses;
            return acc;
        }
        for (std::size_t t = 0; t < batch.indices.size(); ++t) {
            const std::vector<std::uint64_t> &rows = batch.indices[t];
            std::vector<std::uint8_t> &mask = batch.cacheHit[t];
            mask.assign(rows.size(), 0);
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(t) << 32) |
                    (rows[i] & 0xffffffffULL);
                if (_policy->contains(key)) {
                    _policy->touch(key);
                    mask[i] = 1;
                    ++acc.hits;
                    continue;
                }
                ++acc.misses;
                if (!admit(key))
                    continue;
                while (_policy->size() >= _maxRows) {
                    const std::uint64_t victim = _policy->evict();
                    ++_evictions;
                    if (_cfg.ghost)
                        ghostInsert(victim);
                }
                _policy->insert(key);
            }
        }
        _hits += acc.hits;
        _misses += acc.misses;
        acc.hitBytes = acc.hits * _rowBytes;
        return acc;
    }

    CacheStats
    stats() const
    {
        CacheStats s;
        s.hits = _hits;
        s.misses = _misses;
        s.evictions = _evictions;
        s.rejectedFills = _rejectedFills;
        s.bytesResident = _policy->size() * _rowBytes;
        return s;
    }

    std::vector<std::uint64_t>
    residentKeys() const
    {
        std::vector<std::uint64_t> keys = _policy->keys();
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    bool
    admit(std::uint64_t key)
    {
        if (!_cfg.ghost)
            return true;
        auto it = _ghostMap.find(key);
        if (it != _ghostMap.end()) {
            _ghostList.erase(it->second);
            _ghostMap.erase(it);
            return true;
        }
        ghostInsert(key);
        ++_rejectedFills;
        return false;
    }

    void
    ghostInsert(std::uint64_t key)
    {
        if (_ghostCap == 0)
            return;
        auto it = _ghostMap.find(key);
        if (it != _ghostMap.end()) {
            _ghostList.splice(_ghostList.begin(), _ghostList,
                              it->second);
            return;
        }
        _ghostList.push_front(key);
        _ghostMap.emplace(key, _ghostList.begin());
        if (_ghostMap.size() > _ghostCap) {
            _ghostMap.erase(_ghostList.back());
            _ghostList.pop_back();
        }
    }

    CacheTierConfig _cfg;
    std::uint32_t _rowBytes;
    std::uint64_t _maxRows;
    std::unique_ptr<RowCachePolicy> _policy;

    std::list<std::uint64_t> _ghostList;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator>
        _ghostMap;
    std::uint64_t _ghostCap;

    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _rejectedFills = 0;
};

} // namespace naive
} // namespace centaur

#endif // CENTAUR_TESTS_CACHETIER_NAIVE_TIER_HH
