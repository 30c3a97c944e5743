/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue orders arbitrary callbacks by tick with stable FIFO
 * ordering among same-tick events. Components either schedule events
 * here or (for throughput-critical models such as the DRAM data bus)
 * keep "busy-until" resource clocks and only consult the queue for
 * cross-component synchronization.
 *
 * The kernel is allocation-free on the hot path: an Event is a POD
 * {tick, seq, fn, ctx} record stored in a flat quaternary implicit
 * min-heap (shallower than a binary heap, and every sift touches one
 * cache line of children), and callables that need storage are boxed
 * once into a bump arena owned by the queue instead of a heap-backed
 * std::function per schedule. Engines that re-fire one long-lived
 * round body pass a captureless trampoline plus a context pointer
 * and never allocate at all.
 */

#ifndef CENTAUR_SIM_EVENT_QUEUE_HH
#define CENTAUR_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/units.hh"

namespace centaur {

/** Raw event callback: invoked as fn(ctx). */
using EventFn = void (*)(void *);

/** A scheduled callback. POD: 32 bytes, no owned storage. */
struct Event
{
    Tick when = 0;
    std::uint64_t seq = 0; //!< insertion order, breaks same-tick ties
    EventFn fn = nullptr;
    void *ctx = nullptr;
};

/**
 * Bump allocator for callables boxed by the template schedule()
 * overloads. Objects are placement-new'ed into chunked storage;
 * reset() runs any non-trivial destructors and recycles the chunks
 * without returning them to the system allocator, so a drained
 * queue's next run reuses the same memory.
 */
class CallbackArena
{
  public:
    template <typename F>
    std::decay_t<F> *
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        void *slot = allocate(sizeof(Fn), alignof(Fn));
        Fn *obj = new (slot) Fn(std::forward<F>(f));
        if constexpr (!std::is_trivially_destructible_v<Fn>)
            _dtors.push_back(
                {[](void *p) { static_cast<Fn *>(p)->~Fn(); }, obj});
        return obj;
    }

    /** Destroy every boxed callable and recycle the chunks. */
    void reset();

    ~CallbackArena() { reset(); }

  private:
    void *allocate(std::size_t size, std::size_t align);

    struct Chunk
    {
        std::unique_ptr<unsigned char[]> data;
        std::size_t cap = 0;
    };
    struct Dtor
    {
        void (*fn)(void *);
        void *obj;
    };
    std::vector<Chunk> _chunks;
    std::size_t _chunk = 0; //!< chunk currently being bumped
    std::size_t _used = 0;  //!< bytes used in that chunk
    std::vector<Dtor> _dtors;
};

namespace detail {

/**
 * Flat quaternary implicit min-heap of Events ordered by (when, seq).
 * Children of node i live at 4i+1..4i+4: half the depth of a binary
 * heap and one contiguous scan per sift-down level.
 */
struct EventHeap
{
    std::vector<Event> v;

    static bool
    earlier(const Event &a, const Event &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    bool empty() const { return v.empty(); }
    std::size_t size() const { return v.size(); }
    const Event &top() const { return v.front(); }
    void reserve(std::size_t n) { v.reserve(n); }
    void clear() { v.clear(); }

    void
    push(const Event &e)
    {
        v.push_back(e);
        std::size_t i = v.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!earlier(v[i], v[parent]))
                break;
            std::swap(v[i], v[parent]);
            i = parent;
        }
    }

    Event
    pop()
    {
        const Event out = v.front();
        v.front() = v.back();
        v.pop_back();
        const std::size_t n = v.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t best = i;
            const std::size_t first = 4 * i + 1;
            const std::size_t last =
                first + 4 < n ? first + 4 : n;
            for (std::size_t c = first; c < last; ++c)
                if (earlier(v[c], v[best]))
                    best = c;
            if (best == i)
                break;
            std::swap(v[i], v[best]);
            i = best;
        }
        return out;
    }
};

} // namespace detail

/**
 * A tick-ordered event queue with deterministic same-tick ordering.
 *
 * Events scheduled for the same tick execute in insertion order, which
 * keeps simulations reproducible across runs and platforms.
 */
class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events waiting to execute. */
    std::size_t pending() const { return _heap.size(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Pre-size the heap (and so every later push) for @p events
     * outstanding events. Engines size this from their admission
     * queue before the first schedule so the flat heap never
     * reallocates mid-run.
     */
    void reserve(std::size_t events) { _heap.reserve(events); }

    /**
     * Schedule @p fn(@p ctx) to run at absolute tick @p when.
     * Allocation-free; @p ctx must outlive the event. Scheduling in
     * the past is a simulator bug.
     */
    void schedule(Tick when, EventFn fn, void *ctx = nullptr);

    /**
     * Schedule a callable at absolute tick @p when, boxing a copy
     * into the queue's arena (one bump allocation, no malloc). The
     * box is destroyed when the queue next drains. For a round body
     * re-fired thousands of times, prefer the fn+ctx overload with a
     * captureless trampoline over re-boxing the closure every event.
     */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    schedule(Tick when, F &&f)
    {
        using Fn = std::decay_t<F>;
        Fn *slot = _arena.emplace<Fn>(std::forward<F>(f));
        schedule(when, [](void *p) { (*static_cast<Fn *>(p))(); },
                 slot);
    }

    /** Schedule @p fn(@p ctx) @p delta ticks from now. */
    void
    scheduleIn(Tick delta, EventFn fn, void *ctx = nullptr)
    {
        schedule(_now + delta, fn, ctx);
    }

    /** Schedule a boxed callable @p delta ticks from now. */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    scheduleIn(Tick delta, F &&f)
    {
        schedule(_now + delta, std::forward<F>(f));
    }

    /** Run events until the queue drains. Returns the final tick. */
    Tick run();

    /**
     * Run events with tick <= @p limit. Events scheduled beyond the
     * limit stay queued; time advances to min(limit, last executed).
     */
    Tick runUntil(Tick limit);

    /** Execute at most one event. @return false if the queue is empty. */
    bool step();

    /** Drop all pending events (time does not move). */
    void clear();

    /**
     * Advance the clock to @p when without executing anything.
     * Used by batch-mode component models that resolve latencies
     * analytically but still want a consistent global clock.
     */
    void advanceTo(Tick when);

  private:
    detail::EventHeap _heap;
    CallbackArena _arena;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    unsigned _depth = 0; //!< step() nesting; arena resets at depth 0
};

/**
 * Per-node event queues with a deterministic lowest-(tick, seq)
 * merge: every schedule - whichever shard it lands on - draws from
 * ONE global sequence counter, and execution always picks the shard
 * whose top event has the lowest (tick, seq). The resulting total
 * order is exactly the order a single shared EventQueue would have
 * produced for the same schedule calls (the shard id never has to
 * break a tie because seqs are globally unique), so multi-node sims
 * keep byte-identical reports while each shard's heap stays small:
 * pushes and pops sift through a heap of one node's events, not the
 * whole cluster's, and the merge is a linear scan of N tops.
 */
class ShardedEventQueue
{
  public:
    explicit ShardedEventQueue(std::uint32_t shards);

    /** Current simulated time. */
    Tick now() const { return _now; }

    std::uint32_t
    shards() const
    {
        return static_cast<std::uint32_t>(_shards.size());
    }

    /** Events waiting to execute, across all shards. */
    std::size_t pending() const { return _pending; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Pre-size @p shard's heap for @p events outstanding events. */
    void reserve(std::uint32_t shard, std::size_t events);

    /**
     * Schedule @p fn(@p ctx) on @p shard at absolute tick @p when.
     * Allocation-free. Scheduling in the past is a simulator bug.
     */
    void schedule(std::uint32_t shard, Tick when, EventFn fn,
                  void *ctx = nullptr);

    /** Schedule a callable on @p shard, boxed into the arena. */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    schedule(std::uint32_t shard, Tick when, F &&f)
    {
        using Fn = std::decay_t<F>;
        Fn *slot = _arena.emplace<Fn>(std::forward<F>(f));
        schedule(shard, when,
                 [](void *p) { (*static_cast<Fn *>(p))(); }, slot);
    }

    /** Run events until every shard drains. Returns the final tick. */
    Tick run();

    /** Execute at most one event. @return false if all shards idle. */
    bool step();

  private:
    /**
     * (when, seq) of each shard's top event, mirrored into one
     * contiguous array so the per-step merge scans two cache lines
     * instead of chasing every shard heap's storage. An empty shard
     * holds the all-ones sentinel, which loses every comparison.
     */
    struct TopKey
    {
        Tick when = ~Tick(0);
        std::uint64_t seq = ~std::uint64_t(0);
    };

    void
    refreshTop(std::uint32_t shard)
    {
        const detail::EventHeap &h = _shards[shard];
        _tops[shard] = h.empty()
                           ? TopKey{}
                           : TopKey{h.top().when, h.top().seq};
    }

    std::vector<detail::EventHeap> _shards;
    std::vector<TopKey> _tops;
    CallbackArena _arena;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t _pending = 0;
    unsigned _depth = 0;
};

/**
 * Process-wide count of events executed by every EventQueue since
 * start-up. A pure function of the simulated work, so bench reports
 * stamp deltas of it ("sim_events") as a deterministic cost metric:
 * two runs of the same suite agree exactly, at any thread count.
 */
std::uint64_t globalSimEvents();

} // namespace centaur

#endif // CENTAUR_SIM_EVENT_QUEUE_HH
