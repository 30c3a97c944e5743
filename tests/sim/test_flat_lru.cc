/**
 * @file
 * FlatIndex and FlatLru tests: probe chains that wrap past the table
 * end survive backward-shift deletion, and a long random operation
 * stream matches a std::list + std::map LRU step for step.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <vector>

#include "sim/flat_lru.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

/** First @p n keys, counting up from @p from, whose home is @p cell. */
std::vector<std::uint64_t>
keysHomedAt(const FlatIndex &index, std::size_t cell, std::size_t n,
            std::uint64_t from = 1)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = from; out.size() < n; ++k)
        if (index.home(k) == cell)
            out.push_back(k);
    return out;
}

TEST(FlatIndex, BackwardShiftAcrossTheTableEnd)
{
    FlatIndex index;
    index.insert(0, 0); // materialize the 16-cell table
    index.erase(0);
    const std::size_t cells = index.tableSize();
    ASSERT_EQ(cells, 16u);
    const std::size_t last = cells - 1;

    // Two keys homed at the last cell: the second wraps to cell 0.
    // A key homed at cell 0 is pushed on to cell 1.
    const std::vector<std::uint64_t> at_end = keysHomedAt(index, last, 2);
    const std::uint64_t at_zero = keysHomedAt(index, 0, 1).front();
    index.insert(at_end[0], 10);
    index.insert(at_end[1], 11);
    index.insert(at_zero, 12);
    ASSERT_EQ(index.tableSize(), cells);
    EXPECT_EQ(index.find(at_end[1]), 11u);
    EXPECT_EQ(index.find(at_zero), 12u);

    // Erasing the end cell must pull both wrapped keys back across
    // the table end, or their probes would stop at the hole.
    index.erase(at_end[0]);
    EXPECT_EQ(index.find(at_end[0]), kNoSlot);
    EXPECT_EQ(index.find(at_end[1]), 11u);
    EXPECT_EQ(index.find(at_zero), 12u);

    index.erase(at_end[1]);
    EXPECT_EQ(index.find(at_zero), 12u);
    index.erase(at_zero);
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.find(at_zero), kNoSlot);
}

TEST(FlatIndex, ErasingMidChainKeepsLaterKeysReachable)
{
    FlatIndex index;
    index.insert(0, 0);
    index.erase(0);
    // A run of five keys homed at cell 13 covers 13..15, 0, 1; a key
    // homed at cell 14 lands after them. Erase from the middle.
    const std::vector<std::uint64_t> run = keysHomedAt(index, 13, 5);
    const std::uint64_t later = keysHomedAt(index, 14, 1).front();
    for (std::uint32_t i = 0; i < run.size(); ++i)
        index.insert(run[i], i);
    index.insert(later, 99);
    ASSERT_EQ(index.tableSize(), 16u);

    index.erase(run[2]);
    index.erase(run[0]);
    EXPECT_EQ(index.find(run[1]), 1u);
    EXPECT_EQ(index.find(run[3]), 3u);
    EXPECT_EQ(index.find(run[4]), 4u);
    EXPECT_EQ(index.find(later), 99u);
    EXPECT_EQ(index.find(run[0]), kNoSlot);
    EXPECT_EQ(index.find(run[2]), kNoSlot);
}

TEST(FlatLru, OrderAndSortedKeys)
{
    FlatLru lru;
    EXPECT_TRUE(lru.empty());
    lru.pushFront(30);
    lru.pushFront(10);
    lru.pushFront(20); // recency: 20, 10, 30
    lru.moveToFront(lru.find(30)); // 30, 20, 10
    EXPECT_EQ(lru.sortedKeys(), (std::vector<std::uint64_t>{10, 20, 30}));
    EXPECT_EQ(lru.popBack(), 10u);
    lru.erase(lru.find(30));
    EXPECT_EQ(lru.find(30), kNoSlot);
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_EQ(lru.popBack(), 20u);
    EXPECT_TRUE(lru.empty());
}

/** The list-plus-map LRU FlatLru must behave like. */
class ListLru
{
  public:
    bool contains(std::uint64_t k) const { return _map.count(k) != 0; }
    void
    moveToFront(std::uint64_t k)
    {
        _list.splice(_list.begin(), _list, _map.at(k));
    }
    void
    pushFront(std::uint64_t k)
    {
        _list.push_front(k);
        _map[k] = _list.begin();
    }
    std::uint64_t
    popBack()
    {
        const std::uint64_t k = _list.back();
        _map.erase(k);
        _list.pop_back();
        return k;
    }
    void
    erase(std::uint64_t k)
    {
        _list.erase(_map.at(k));
        _map.erase(k);
    }
    std::size_t size() const { return _map.size(); }
    std::vector<std::uint64_t>
    keys() const
    {
        std::vector<std::uint64_t> out;
        for (const auto &kv : _map)
            out.push_back(kv.first);
        return out;
    }

  private:
    std::list<std::uint64_t> _list;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator> _map;
};

TEST(FlatLru, RandomStreamMatchesListLru)
{
    // 3000 keys spread over table-sized strides, so homes collide
    // and chains wrap; the set grows, shrinks and regrows.
    FlatLru flat(512);
    ListLru ref;
    Rng rng(11);
    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t key =
            (rng.nextBelow(3000) << 32) | rng.nextBelow(4);
        const std::uint32_t slot = flat.find(key);
        ASSERT_EQ(slot != kNoSlot, ref.contains(key)) << step;
        const std::uint64_t op = rng.nextBelow(8);
        if (slot != kNoSlot) {
            if (op == 0) {
                flat.erase(slot);
                ref.erase(key);
            } else {
                flat.moveToFront(slot);
                ref.moveToFront(key);
            }
        } else {
            const std::size_t cap = (step / 20000) % 2 ? 64 : 512;
            while (ref.size() >= cap)
                ASSERT_EQ(flat.popBack(), ref.popBack()) << step;
            flat.pushFront(key);
            ref.pushFront(key);
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    EXPECT_EQ(flat.sortedKeys(), ref.keys());
    flat.clear();
    EXPECT_TRUE(flat.empty());
    EXPECT_TRUE(flat.sortedKeys().empty());
}

} // namespace
} // namespace centaur
