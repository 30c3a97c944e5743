#include "sim/event_queue.hh"

#include <atomic>

#include "sim/log.hh"

namespace centaur {

namespace {
/** Atomic because bench suites run sweep points on --jobs threads;
 *  the total is the same at any job count. */
std::atomic<std::uint64_t> global_sim_events{0};

constexpr std::size_t kArenaChunkBytes = 16384;
} // namespace

std::uint64_t
globalSimEvents()
{
    return global_sim_events.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// CallbackArena
// ---------------------------------------------------------------------

void *
CallbackArena::allocate(std::size_t size, std::size_t align)
{
    for (;;) {
        if (_chunk < _chunks.size()) {
            Chunk &c = _chunks[_chunk];
            const std::size_t aligned =
                (_used + align - 1) & ~(align - 1);
            if (aligned + size <= c.cap) {
                _used = aligned + size;
                return c.data.get() + aligned;
            }
            // Current chunk full: move on (recycled chunks keep
            // their storage, so a later run reuses it).
            ++_chunk;
            _used = 0;
            continue;
        }
        Chunk fresh;
        fresh.cap = size + align > kArenaChunkBytes ? size + align
                                                    : kArenaChunkBytes;
        fresh.data = std::make_unique<unsigned char[]>(fresh.cap);
        _chunks.push_back(std::move(fresh));
    }
}

void
CallbackArena::reset()
{
    // Reverse destruction order: later boxes may reference earlier
    // ones the way stack unwinding would.
    for (std::size_t i = _dtors.size(); i-- > 0;)
        _dtors[i].fn(_dtors[i].obj);
    _dtors.clear();
    _chunk = 0;
    _used = 0;
}

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

void
EventQueue::schedule(Tick when, EventFn fn, void *ctx)
{
    if (when < _now)
        panic("scheduling event at tick ", when, " in the past (now ",
              _now, ")");
    _heap.push(Event{when, _nextSeq++, fn, ctx});
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!_heap.empty() && _heap.top().when <= limit)
        step();
    if (_now < limit && _heap.empty())
        _now = limit;
    return _now;
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    // Pop before executing so the callback may schedule new events
    // (which mutates the heap) while it runs.
    const Event ev = _heap.pop();
    _now = ev.when;
    ++_executed;
    global_sim_events.fetch_add(1, std::memory_order_relaxed);
    ++_depth;
    ev.fn(ev.ctx);
    --_depth;
    // A drained queue holds no live boxed callables (the one that
    // just ran has returned), so the arena can recycle its storage -
    // unless we are nested inside an outer step()'s callback, whose
    // box must survive until it returns.
    if (_heap.empty() && _depth == 0)
        _arena.reset();
    return true;
}

void
EventQueue::clear()
{
    _heap.clear();
    if (_depth == 0)
        _arena.reset();
}

void
EventQueue::advanceTo(Tick when)
{
    if (when < _now)
        panic("advancing clock backwards: ", when, " < ", _now);
    _now = when;
}

// ---------------------------------------------------------------------
// ShardedEventQueue
// ---------------------------------------------------------------------

ShardedEventQueue::ShardedEventQueue(std::uint32_t shards)
{
    if (shards == 0)
        fatal("sharded event queue needs at least one shard");
    _shards.resize(shards);
    _tops.resize(shards);
}

void
ShardedEventQueue::reserve(std::uint32_t shard, std::size_t events)
{
    if (shard >= _shards.size())
        panic("reserve on shard ", shard, " of ", _shards.size());
    _shards[shard].reserve(events);
}

void
ShardedEventQueue::schedule(std::uint32_t shard, Tick when, EventFn fn,
                            void *ctx)
{
    if (shard >= _shards.size())
        panic("scheduling on shard ", shard, " of ", _shards.size());
    if (when < _now)
        panic("scheduling event at tick ", when, " in the past (now ",
              _now, ")");
    // The seq counter is global across shards: the merge below keyed
    // on (tick, seq) therefore reproduces the exact total order one
    // shared queue would execute, whatever shard events land on.
    _shards[shard].push(Event{when, _nextSeq++, fn, ctx});
    ++_pending;
    refreshTop(shard);
}

Tick
ShardedEventQueue::run()
{
    while (step()) {
    }
    return _now;
}

bool
ShardedEventQueue::step()
{
    if (_pending == 0)
        return false;
    // Deterministic merge: the shard whose top event has the lowest
    // (tick, seq) executes next. Seqs are globally unique, so the
    // shard id never has to break a tie (empty shards hold the
    // all-ones sentinel and lose every comparison).
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < _tops.size(); ++i) {
        const TopKey &t = _tops[i];
        const TopKey &b = _tops[best];
        if (t.when < b.when || (t.when == b.when && t.seq < b.seq))
            best = i;
    }
    const Event ev = _shards[best].pop();
    --_pending;
    refreshTop(best);
    _now = ev.when;
    ++_executed;
    global_sim_events.fetch_add(1, std::memory_order_relaxed);
    ++_depth;
    ev.fn(ev.ctx);
    --_depth;
    if (_depth == 0 && _pending == 0)
        _arena.reset();
    return true;
}

} // namespace centaur
