/**
 * @file
 * Host-time tracing for centaur_perf, done entirely from the
 * benchmark's side of the library's public API:
 *
 *   SpanLog      an in-memory log of host-time spans (name, start,
 *                end, parent, rep) with per-name self-time totals and
 *                a Chrome trace-event export;
 *   TimedSystem  a System decorator that times every infer() call
 *                and records what the call was given and returned;
 *   replayCalls  replays one worker's recorded batches through a
 *                fresh composition of the public stage classes
 *                (cache tier, embedding backend, MLP backend,
 *                ReferenceModel) and times each stage.
 *
 * Every span is host time (what the simulator costs); the Tick
 * values recorded next to them are simulated time.
 */

#ifndef CENTAUR_BENCH_PERF_TRACE_HH
#define CENTAUR_BENCH_PERF_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cachetier/cache_tier.hh"
#include "core/system.hh"
#include "sim/json.hh"

namespace centaur::perf {

/** One host-time interval, kept in memory until the run ends. */
struct Span
{
    const char *name = "";
    std::uint64_t startUs = 0;
    std::uint64_t endUs = 0;
    int parent = -1; //!< index of the enclosing span, -1 for a root
    int rep = 0;     //!< traced rep the span belongs to
};

/**
 * Single-threaded span log. open() nests the new span under the
 * innermost open one, so callers never pass parents around.
 */
class SpanLog
{
  public:
    /** Start a span in the current rep; returns its index. */
    int open(const char *name);

    /** End span @p span, which must be the innermost open one. */
    void close(int span);

    /** Tag spans opened from now on with @p rep. */
    void setRep(int rep) { _rep = rep; }

    const std::vector<Span> &spans() const { return _spans; }

    /**
     * Self time per span name over rep @p rep: each span's duration
     * minus the durations of its direct children, summed by name.
     */
    std::map<std::string, double> selfUs(int rep) const;

    /** Number of spans of each name in rep @p rep. */
    std::map<std::string, double> counts(int rep) const;

    /** Host durations (us) of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Chrome trace-event JSON ("X" complete events, one thread). */
    Json chromeTrace() const;

  private:
    std::vector<Span> _spans;
    std::vector<int> _stack;
    int _rep = 0;
};

/** RAII span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name)
        : _log(log), _span(log.open(name))
    {
    }
    ~ScopedSpan() { _log.close(_span); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &_log;
    int _span;
};

/** What one System::infer call was given and what it returned. */
struct CapturedCall
{
    /** The batch as the engine passed it, hot-row hit mask cleared. */
    InferenceBatch batch;
    Tick start = 0;
    Tick latencyTicks = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
};

/**
 * Decorator over one worker system. It forwards identity (design,
 * spec, cache tier, model and power config), keeps the inner clock
 * in step with its own (the engines align the clock of the System
 * they hold, which is this wrapper), and wraps each infer() in a
 * "core.infer" span. Recording the call happens outside that span,
 * in a "bench.capture" span, so the copy is not charged to the
 * library. Design, spec and tier config are copied at construction,
 * so the recorded calls can be replayed after the inner system is
 * gone.
 */
class TimedSystem : public System
{
  public:
    TimedSystem(System &inner, SpanLog &log);

    DesignPoint design() const override { return _design; }
    std::string spec() const override { return _spec; }
    /** Valid only while the inner system lives. */
    const CacheTier *cacheTier() const override
    {
        return _inner.cacheTier();
    }

    InferenceResult infer(const InferenceBatch &batch) override;

    /** The inner system's tier config; disabled when it had none. */
    const CacheTierConfig &tierConfig() const { return _tierCfg; }
    const std::vector<CapturedCall> &calls() const { return _calls; }

  private:
    System &_inner;
    SpanLog &_log;
    DesignPoint _design;
    std::string _spec;
    CacheTierConfig _tierCfg;
    std::vector<CapturedCall> _calls;
};

/**
 * Replay @p ts's recorded calls, in order, through a fresh stage
 * composition built like the library's ComposedSystem (same device
 * defaults, same construction order, no fabric, a fresh private
 * tier when the worker had one). Each stage call gets its own span:
 * "cachetier.annotate", the embedding backend ("cpu.gather",
 * "gpu.gather", "fpga.eb_streamer"), the MLP backend ("cpu.mlp",
 * "gpu.mlp", "fpga.mlp") and "dlrm.forward".
 *
 * Returns how many replayed latencies differ from the recorded
 * ones. That is zero whenever the worker ran uncontended and
 * without a shared cache tier, which shows the replay does the
 * same simulated work as the run it splits.
 */
std::uint64_t replayCalls(const TimedSystem &ts, SpanLog &log);

} // namespace centaur::perf

#endif // CENTAUR_BENCH_PERF_TRACE_HH
