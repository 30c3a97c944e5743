/**
 * @file
 * Deterministic closed-loop controllers for the serving engines.
 *
 * The control plane (ISCA'20 tail-at-scale mitigations, ROADMAP
 * "closed-loop serving") is four cooperating controllers layered
 * over the serving engine (core/node_scheduler.hh), one node or a
 * cluster:
 *
 *   SloTracker       per-class p99 targets from the workload grammar
 *                    ("/slo:<class>:<p99_us>"); requests are stamped
 *                    with a class at generation time (id % classes)
 *   AdaptiveBatcher  widens/narrows the coalescing window against
 *                    queue depth and p99-vs-target error, PID-style
 *                    with fixed-point (integer-nanosecond) gains
 *   ServiceQuantile  streaming service-time quantile arming hedged
 *                    duplicate dispatches
 *   Autoscaler       drains/re-adds workers (cluster: whole nodes)
 *                    on an interval-utilization band
 *
 * Every controller is plain integer/IEEE arithmetic fed in
 * request-id / tick order - no wall clock, no host randomness - so
 * closed-loop runs stay byte-identical at any --jobs count. The
 * engines instantiate these per run but consult them only behind
 * the CtrlConfig flags; a disabled config ("ctrl:fixed") keeps the
 * open-loop path tick-identical to the PR 8 engine.
 */

#ifndef CENTAUR_CTRLPLANE_CONTROLLERS_HH
#define CENTAUR_CTRLPLANE_CONTROLLERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ctrlplane/ctrl_spec.hh"

namespace centaur {

/** Per-SLO-class serving outcome (report schema v1.6). */
struct SloClassStats
{
    std::string name;         //!< class label from the workload spec
    double targetUs = 0.0;    //!< p99 latency target
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    double p99Us = 0.0;       //!< observed p99 over served requests
    /** Fraction of *offered* class requests completed within the
     *  target (drops count as misses). */
    double attainment = 0.0;
};

/** Control-plane outcome of one serving run (report schema v1.6). */
struct CtrlStats
{
    /** Canonical policy the run executed (ctrlPartName). */
    std::string policy = "ctrl:fixed";

    // Adaptive-batcher window trajectory (microseconds).
    std::uint64_t windowUpdates = 0;
    double windowMinUs = 0.0;
    double windowMeanUs = 0.0;
    double windowMaxUs = 0.0;
    double windowFinalUs = 0.0;

    // Hedged duplicates.
    std::uint64_t hedgeDispatches = 0;
    std::uint64_t hedgeWins = 0;   //!< the clone finished first
    std::uint64_t hedgeLosses = 0; //!< the primary finished first
    /** Loser time actually burned before cancellation. */
    double hedgeWastedUs = 0.0;
    /** Energy the cancelled losers burned (prorated). */
    double hedgeEnergyJoules = 0.0;

    // Autoscaler.
    std::uint64_t scaleUps = 0;
    std::uint64_t scaleDowns = 0;
    std::uint32_t activeMin = 0; //!< fewest simultaneously active
    std::uint32_t activeMax = 0; //!< most simultaneously active
    double meanActiveWorkers = 0.0;
};

/**
 * Streaming quantile over an append-only sample set (sorted-insert
 * vector; fine for the few hundred dispatches of a serving run).
 * Used as the hedge trigger: a dispatch whose service time exceeds
 * quantile(q) of everything observed so far is a straggler.
 */
class ServiceQuantile
{
  public:
    void add(double sample_us);

    /** Enough history to trust the tail estimate? */
    bool
    ready() const
    {
        return _sorted.size() >= kMinSamples;
    }

    /** The q-quantile of the samples so far (0 when empty). */
    double quantileUs(double q) const;

    std::uint64_t
    samples() const
    {
        return _sorted.size();
    }

    static constexpr std::size_t kMinSamples = 8;

  private:
    std::vector<double> _sorted;
};

/**
 * PID-style coalescing-window controller with fixed-point gains:
 * the window lives as integer nanoseconds, and every gain is an
 * integer shift, so the trajectory is exactly reproducible. Updated
 * once per dispatch, at the dispatch tick, in request-id order.
 *
 * With a p99 target the error term is (target - worst latency of
 * the dispatched batch): misses narrow the window multiplicatively
 * (serve sooner), headroom widens it (batch more, spend less
 * energy). Without SLO classes the controller falls back to queue
 * depth alone - an underfull queue widens, a saturated one narrows.
 */
class AdaptiveBatcher
{
  public:
    /**
     * @param initial_window_us the configured open-loop window
     * @param max_window_us trajectory cap (headroom can only widen
     *        this far; 0 floors at 1 ms)
     */
    AdaptiveBatcher(double initial_window_us, double max_window_us);

    /** Current window the engine's batching loop should use. */
    double
    windowUs() const
    {
        return static_cast<double>(_windowNs) * 1e-3;
    }

    /**
     * One control step after a dispatch. @p queue_depth is the
     * post-dispatch backlog, @p max_batch the coalescing limit,
     * @p worst_latency_us the slowest request latency the dispatch
     * completed, @p target_us the tightest p99 target among the
     * dispatched classes (0 = no SLO classes).
     */
    void update(std::size_t queue_depth, std::uint32_t max_batch,
                double worst_latency_us, double target_us);

    std::uint64_t
    updates() const
    {
        return _updates;
    }

    /** Fill the window-trajectory block of @p out. */
    void fill(CtrlStats *out) const;

  private:
    std::int64_t _windowNs = 0;
    std::int64_t _maxNs = 0;
    std::int64_t _integralNs = 0;
    std::uint64_t _updates = 0;
    std::int64_t _minNs = 0;
    std::int64_t _maxSeenNs = 0;
    double _sumNs = 0.0;
};

/**
 * Utilization-band autoscaler. The engine calls decide() at fixed
 * control boundaries (interval ticks on the shared event queue, so
 * decisions are totally ordered); the scaler owns the active count
 * and trajectory, the engine owns which worker/node index actually
 * drains or wakes.
 */
class Autoscaler
{
  public:
    /**
     * @param cfg the scale band
     * @param pool total workers (or nodes) available
     * @param interval_us control period
     */
    Autoscaler(const CtrlConfig &cfg, std::uint32_t pool,
               double interval_us);

    /** Next control boundary due at or before @p now_us? */
    bool
    due(double now_us) const
    {
        return now_us >= _nextControlUs;
    }

    double
    intervalUs() const
    {
        return _intervalUs;
    }

    /**
     * One control step: @p busy_us is lane-busy time accumulated
     * since the previous boundary. Returns +1 (re-add one), -1
     * (drain one) or 0 (hold); advances the boundary and the
     * trajectory stats either way.
     */
    int decide(double busy_us);

    std::uint32_t
    active() const
    {
        return _active;
    }

    /** Fill the autoscaler block of @p out. */
    void fill(CtrlStats *out) const;

  private:
    double _loUtil;
    double _hiUtil;
    std::uint32_t _pool;
    std::uint32_t _active;
    double _intervalUs;
    double _nextControlUs;
    std::uint64_t _ups = 0;
    std::uint64_t _downs = 0;
    std::uint32_t _minActive;
    std::uint32_t _maxActive;
    std::uint64_t _decisions = 0;
    double _activeSum = 0.0;
};

} // namespace centaur

#endif // CENTAUR_CTRLPLANE_CONTROLLERS_HH
