/**
 * @file
 * Flat, allocation-light building blocks for recency-ordered key
 * sets: the hot-row cache tier's policies (cachetier/cache_tier.cc)
 * and the IOMMU's TLB (interconnect/iommu.hh).
 *
 *  - FlatIndex: an open-addressing map from a 64-bit key to a 32-bit
 *    slab slot. Linear probing over a power-of-two table, Fibonacci
 *    (multiplicative) hashing, load factor at most 3/4. Deletion is
 *    Knuth's backward shift (TAOCP Vol. 3, Sec. 6.4, Algorithm R), so
 *    the table never holds tombstones and probe chains never rot.
 *  - Slab: a vector of fixed-size entries with a free list threaded
 *    through their `next` index.
 *  - SlabList: one intrusive doubly linked list threaded through a
 *    slab's `prev`/`next` indices.
 *  - FlatLru: the three composed into an LRU-ordered key set whose
 *    hit path is one hash probe plus an O(1) relink.
 *
 * Every array grows on demand, never past what the caller's stated
 * capacity needs, so an idle or small structure stays small.
 *
 * Determinism: the index's layout depends on insertion history, but
 * nothing here iterates it. Victims come from list ends, and key
 * listings (FlatLru::sortedKeys) are sorted.
 */

#ifndef CENTAUR_SIM_FLAT_LRU_HH
#define CENTAUR_SIM_FLAT_LRU_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace centaur {

/** "No entry": an empty index cell, a list end, an absent key. */
constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/**
 * Next reservation for an array of @p size entries that will never
 * hold more than @p capacity (0 = unbounded): double, but stop at the
 * capacity.
 */
inline std::size_t
cappedGrowth(std::size_t size, std::uint64_t capacity)
{
    const std::size_t doubled = std::max<std::size_t>(16, 2 * size);
    if (capacity == 0 || doubled <= capacity)
        return doubled;
    return std::max<std::size_t>(static_cast<std::size_t>(capacity),
                                 size + 1);
}

/** Open-addressing key -> slot map (see file comment). */
class FlatIndex
{
  public:
    /** Slot mapped to @p key, or kNoSlot. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        if (_cells.empty())
            return kNoSlot;
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            const Cell &c = _cells[i];
            if (c.slot == kNoSlot || c.key == key)
                return c.slot;
        }
    }

    /** Start loading the cell a find(@p key) probes first. */
    void
    prefetch(std::uint64_t key) const
    {
        if (!_cells.empty())
            __builtin_prefetch(&_cells[home(key)]);
    }

    /** Map @p key, which must be absent, to @p slot. */
    void
    insert(std::uint64_t key, std::uint32_t slot)
    {
        if (4 * (_size + 1) > 3 * _cells.size())
            rehash(std::max<std::size_t>(16, 2 * _cells.size()));
        place(Cell{key, slot});
        ++_size;
    }

    /** Unmap @p key, which must be present. */
    void
    erase(std::uint64_t key)
    {
        std::size_t hole = home(key);
        while (_cells[hole].key != key || _cells[hole].slot == kNoSlot)
            hole = (hole + 1) & _mask;
        // Algorithm R: walk the rest of the probe run and pull back
        // every cell whose home does not lie cyclically in
        // (hole, j] - i.e. whose probe distance reaches the hole.
        for (std::size_t j = (hole + 1) & _mask;
             _cells[j].slot != kNoSlot; j = (j + 1) & _mask) {
            const std::size_t h = home(_cells[j].key);
            if (((j - h) & _mask) >= ((j - hole) & _mask)) {
                _cells[hole] = _cells[j];
                hole = j;
            }
        }
        _cells[hole].slot = kNoSlot;
        --_size;
    }

    std::size_t size() const { return _size; }
    /** Cells in the table (a power of two, or 0 before any insert). */
    std::size_t tableSize() const { return _cells.size(); }

    /** Table cell @p key hashes to; valid once tableSize() > 0. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> _shift);
    }

    void
    clear()
    {
        for (Cell &c : _cells)
            c.slot = kNoSlot;
        _size = 0;
    }

  private:
    struct Cell
    {
        std::uint64_t key = 0;
        std::uint32_t slot = kNoSlot;
    };

    void
    place(const Cell &cell)
    {
        std::size_t i = home(cell.key);
        while (_cells[i].slot != kNoSlot)
            i = (i + 1) & _mask;
        _cells[i] = cell;
    }

    void
    rehash(std::size_t cells)
    {
        const std::vector<Cell> old = std::move(_cells);
        _cells.assign(cells, Cell{});
        _mask = cells - 1;
        _shift = 64;
        while (cells > 1) {
            cells >>= 1;
            --_shift;
        }
        for (const Cell &c : old)
            if (c.slot != kNoSlot)
                place(c);
    }

    std::vector<Cell> _cells;
    std::size_t _mask = 0;
    std::uint32_t _shift = 64;
    std::size_t _size = 0;
};

/**
 * Fixed-size entries addressed by 32-bit slot. Released slots are
 * reused last-in first-out through their `next` member, which
 * @p Entry must provide.
 */
template <class Entry>
class Slab
{
  public:
    explicit Slab(std::uint64_t capacity = 0) : _capacity(capacity) {}

    std::uint32_t
    alloc()
    {
        if (_free != kNoSlot) {
            const std::uint32_t slot = _free;
            _free = _entries[slot].next;
            return slot;
        }
        if (_entries.size() >= kNoSlot)
            panic("Slab: more than 2^32 - 1 entries");
        if (_entries.size() == _entries.capacity())
            _entries.reserve(cappedGrowth(_entries.size(), _capacity));
        _entries.emplace_back();
        return static_cast<std::uint32_t>(_entries.size() - 1);
    }

    void
    release(std::uint32_t slot)
    {
        _entries[slot].next = _free;
        _free = slot;
    }

    Entry &operator[](std::uint32_t slot) { return _entries[slot]; }
    const Entry &operator[](std::uint32_t slot) const
    {
        return _entries[slot];
    }

    void
    clear()
    {
        _entries.clear();
        _free = kNoSlot;
    }

  private:
    std::vector<Entry> _entries;
    std::uint32_t _free = kNoSlot;
    std::uint64_t _capacity;
};

/** Ends and length of one intrusive list (head = most recent). */
struct SlabList
{
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    std::size_t size = 0;

    template <class Entry>
    void
    pushFront(Slab<Entry> &slab, std::uint32_t slot)
    {
        slab[slot].prev = kNoSlot;
        slab[slot].next = head;
        if (head != kNoSlot)
            slab[head].prev = slot;
        else
            tail = slot;
        head = slot;
        ++size;
    }

    template <class Entry>
    void
    unlink(Slab<Entry> &slab, std::uint32_t slot)
    {
        const std::uint32_t prev = slab[slot].prev;
        const std::uint32_t next = slab[slot].next;
        if (prev != kNoSlot)
            slab[prev].next = next;
        else
            head = next;
        if (next != kNoSlot)
            slab[next].prev = prev;
        else
            tail = prev;
        --size;
    }

    template <class Entry>
    void
    moveToFront(Slab<Entry> &slab, std::uint32_t slot)
    {
        if (slot == head)
            return;
        unlink(slab, slot);
        pushFront(slab, slot);
    }
};

/**
 * A recency-ordered set of 64-bit keys: front = most recently pushed
 * or moved, back = the LRU victim. find() hands out a slot that stays
 * valid until that key is erased or popped.
 */
class FlatLru
{
  public:
    /** @p capacity bounds growth only; 0 = unbounded. */
    explicit FlatLru(std::uint64_t capacity = 0) : _slab(capacity) {}

    /** Slot of @p key, or kNoSlot. */
    std::uint32_t find(std::uint64_t key) const { return _index.find(key); }

    void prefetch(std::uint64_t key) const { _index.prefetch(key); }
    void moveToFront(std::uint32_t slot) { _list.moveToFront(_slab, slot); }

    /** Insert absent @p key as most recent; returns its slot. */
    std::uint32_t
    pushFront(std::uint64_t key)
    {
        const std::uint32_t slot = _slab.alloc();
        _slab[slot].key = key;
        _index.insert(key, slot);
        _list.pushFront(_slab, slot);
        return slot;
    }

    /** Remove and return the least recent key (set not empty). */
    std::uint64_t
    popBack()
    {
        const std::uint64_t key = _slab[_list.tail].key;
        erase(_list.tail);
        return key;
    }

    void
    erase(std::uint32_t slot)
    {
        _index.erase(_slab[slot].key);
        _list.unlink(_slab, slot);
        _slab.release(slot);
    }

    std::size_t size() const { return _list.size; }
    bool empty() const { return _list.size == 0; }

    /** Resident keys in ascending order. */
    std::vector<std::uint64_t>
    sortedKeys() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(_list.size);
        for (std::uint32_t s = _list.head; s != kNoSlot; s = _slab[s].next)
            out.push_back(_slab[s].key);
        std::sort(out.begin(), out.end());
        return out;
    }

    void
    clear()
    {
        _index.clear();
        _slab.clear();
        _list = SlabList{};
    }

  private:
    struct Node
    {
        std::uint64_t key;
        std::uint32_t prev;
        std::uint32_t next;
    };

    FlatIndex _index;
    Slab<Node> _slab;
    SlabList _list;
};

} // namespace centaur

#endif // CENTAUR_SIM_FLAT_LRU_HH
