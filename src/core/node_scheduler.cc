#include "core/node_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"
#include "sim/random.hh"

namespace centaur {

namespace {

/** Concatenate per-request payloads into one dispatched batch. */
InferenceBatch
coalesceRequests(const std::vector<InferenceBatch> &payloads,
                 const std::vector<std::uint32_t> &ids)
{
    const InferenceBatch &first = payloads[ids.front()];
    InferenceBatch merged;
    merged.batch = 0;
    merged.lookupsPerTable = first.lookupsPerTable;
    merged.indices.resize(first.indices.size());
    for (std::uint32_t id : ids) {
        const InferenceBatch &req = payloads[id];
        merged.batch += req.batch;
        for (std::size_t t = 0; t < req.indices.size(); ++t)
            merged.indices[t].insert(merged.indices[t].end(),
                                     req.indices[t].begin(),
                                     req.indices[t].end());
        merged.dense.insert(merged.dense.end(), req.dense.begin(),
                            req.dense.end());
    }
    return merged;
}

double
meanGapUs(const ServingConfig &cfg)
{
    return 1e6 / cfg.arrivalRatePerSec;
}

} // namespace

void
checkServingConfig(const ServingConfig &cfg, const char *engine)
{
    if (cfg.arrivalRatePerSec <= 0.0)
        fatal(engine, " needs a positive arrival rate");
    if (cfg.requests == 0)
        fatal(engine, " needs at least one request");
    if (cfg.maxCoalescedBatch == 0)
        fatal(engine, " needs a positive coalesced batch");
    if (cfg.maxQueueDepth > 0 &&
        cfg.maxQueueDepth < cfg.maxCoalescedBatch)
        fatal("maxQueueDepth (", cfg.maxQueueDepth,
              ") must cover maxCoalescedBatch (",
              cfg.maxCoalescedBatch,
              ") or the admission cap starves forming batches");
}

// ---------------------------------------------------------------------
// ArrivalStream
// ---------------------------------------------------------------------

ArrivalStream::ArrivalStream(const DlrmConfig &model,
                             const ServingConfig &cfg)
    : us(cfg.requests), burst(cfg.requests, 0),
      payloads(cfg.requests),
      bursty(cfg.arrival == ArrivalProcess::Burst &&
             cfg.burstFactor > 1.0)
{
    // Poisson draws exponential gaps at the mean rate. Burst draws
    // from a two-state mixture: geometric trains of mean length
    // burstFactor at burstFactor x the mean rate, separated by idle
    // gaps sized so the long-run mean rate is preserved. Diurnal
    // modulates the Poisson rate sinusoidally against the arrival
    // clock (a compressed day) without consuming extra draws.
    Rng rng(cfg.seed * 7919 + 13);
    WorkloadGenerator gen(model, cfg.workloadConfig());
    const double mean_gap_us = meanGapUs(cfg);
    const bool diurnal = cfg.arrival == ArrivalProcess::Diurnal &&
                         cfg.diurnalAmplitude > 0.0;
    const double burst_gap_us = mean_gap_us / cfg.burstFactor;
    const double idle_gap_us =
        mean_gap_us * (cfg.burstFactor - 1.0 + 1.0 / cfg.burstFactor);
    const double diurnal_period_us = cfg.diurnalPeriodSec * 1e6;
    double clock_us = 0.0;
    for (std::uint32_t r = 0; r < cfg.requests; ++r) {
        double gap_mean_us = mean_gap_us;
        if (bursty) {
            const bool in_burst =
                rng.nextDouble() >= 1.0 / cfg.burstFactor;
            gap_mean_us = in_burst ? burst_gap_us : idle_gap_us;
            burst[r] = in_burst ? 1 : 0;
        } else if (diurnal) {
            gap_mean_us =
                mean_gap_us /
                (1.0 + cfg.diurnalAmplitude *
                           std::sin(2.0 * M_PI * clock_us /
                                    diurnal_period_us));
        }
        const double u = std::max(rng.nextDouble(), 1e-12);
        clock_us += -std::log(u) * gap_mean_us;
        us[r] = clock_us;
        payloads[r] = gen.next();
    }
}

// ---------------------------------------------------------------------
// ServingAccumulator
// ---------------------------------------------------------------------

ServingAccumulator::ServingAccumulator(const ServingConfig &c)
    : cfg(c), classServed(c.sloClasses.size(), 0),
      classWithin(c.sloClasses.size(), 0)
{
    classLatency.reserve(cfg.sloClasses.size());
    for (std::size_t k = 0; k < cfg.sloClasses.size(); ++k)
        classLatency.emplace_back(0.0, 100000.0, 2000);
}

ServingAccumulator::Batch
ServingAccumulator::record(const std::vector<std::uint32_t> &ids,
                           const std::vector<double> &arrival_us,
                           double dispatch_us, double complete_us,
                           double service_us)
{
    lastCompletionUs = std::max(lastCompletionUs, complete_us);
    served += ids.size();
    ++dispatches;
    const std::size_t num_classes = cfg.sloClasses.size();
    Batch out;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        const double total = complete_us - arrival_us[k];
        out.worstUs = std::max(out.worstUs, total);
        latency.sample(total);
        service.sample(service_us);
        queueing.sample(dispatch_us - arrival_us[k]);
        if (cfg.slaTargetUs > 0.0 && total <= cfg.slaTargetUs)
            ++slaHits;
        if (num_classes) {
            const std::size_t c = ids[k] % num_classes;
            const SloClass &cls = cfg.sloClasses[c];
            classLatency[c].sample(total);
            ++classServed[c];
            if (total <= cls.p99TargetUs)
                ++classWithin[c];
            if (out.tightestTargetUs == 0.0 ||
                cls.p99TargetUs < out.tightestTargetUs)
                out.tightestTargetUs = cls.p99TargetUs;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// NodeScheduler
// ---------------------------------------------------------------------

NodeScheduler::NodeScheduler(ServingRun &run, std::uint32_t idx,
                             std::vector<System *> ws, Fabric *f)
    : index(idx), workers(std::move(ws)), fabric(f),
      freeUs(workers.size(), 0.0), stats(workers.size()),
      active(workers.size(), 1), up(workers.size(), 1),
      upSinceUs(workers.size(), 0.0), upUs(workers.size(), 0.0),
      batcher(run.cfg.coalesceWindowUs,
              std::max(run.cfg.coalesceWindowUs * 8.0,
                       4.0 * meanGapUs(run.cfg))),
      _run(run)
{
    for (std::size_t i = 0; i < workers.size(); ++i)
        stats[i].spec = workers[i]->spec();
}

std::size_t
NodeScheduler::earliest() const
{
    std::size_t best = workers.size();
    for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!active[i])
            continue;
        if (best == workers.size() || freeUs[i] < freeUs[best])
            best = i;
    }
    return best;
}

void
NodeScheduler::wake(Tick when)
{
    _run.events.schedule(index, std::max(_run.events.now(), when),
                         &NodeScheduler::fire, this);
}

void
NodeScheduler::powerDown(std::size_t i, double now_us)
{
    up[i] = 0;
    upUs[i] += now_us - upSinceUs[i];
}

void
NodeScheduler::powerUp(std::size_t i, double now_us)
{
    up[i] = 1;
    upSinceUs[i] = now_us;
    freeUs[i] = std::max(freeUs[i], now_us);
}

CacheStats
NodeScheduler::cacheStats() const
{
    CacheStats out;
    std::vector<const CacheTier *> seen;
    for (const System *w : workers) {
        const CacheTier *tier = w->cacheTier();
        if (!tier ||
            std::find(seen.begin(), seen.end(), tier) != seen.end())
            continue;
        seen.push_back(tier);
        out += tier->stats();
    }
    return out;
}

std::vector<FabricResourceStats>
NodeScheduler::fabricStats(Tick horizon) const
{
    std::vector<FabricResourceStats> out;
    if (!fabric)
        return out;
    for (std::size_t i = 0; i < kNumNodeResources; ++i) {
        const auto r = static_cast<NodeResource>(i);
        const ResourceClock &clk = fabric->clock(r);
        FabricResourceStats fs;
        fs.resource = nodeResourceName(r);
        fs.lanes = clk.lanes();
        fs.grants = clk.grants();
        // Lane-occupancy time: a gang of k cores for d us books k*d,
        // so utilization divides out to a capacity fraction.
        fs.busyUs = usFromTicks(clk.busyTicks());
        fs.waitUs = usFromTicks(clk.waitTicks());
        fs.utilization = clk.utilization(horizon);
        out.push_back(std::move(fs));
    }
    return out;
}

void
NodeScheduler::fire(void *self)
{
    static_cast<NodeScheduler *>(self)->round();
}

void
NodeScheduler::classifyDrop(std::uint32_t id)
{
    // Pure bookkeeping: the draw stream was fixed up front.
    if (!_run.arrivals.bursty)
        return;
    if (_run.arrivals.burst[id])
        ++_run.acc.droppedBurst;
    else
        ++_run.acc.droppedIdle;
}

void
NodeScheduler::admitUpTo(double t_us)
{
    const std::vector<double> &arrival_us = _run.arrivals.us;
    const std::uint32_t cap = _run.cfg.maxQueueDepth;
    while (next < ids.size() && arrival_us[ids[next]] <= t_us) {
        if (cap > 0 && _queue.size() >= cap) {
            ++droppedFull;
            classifyDrop(ids[next]);
        } else {
            _queue.push_back({ids[next], arrival_us[ids[next]]});
        }
        ++next;
    }
}

void
NodeScheduler::credit(std::size_t w, double busy_us,
                      std::size_t requests, const InferenceResult &res)
{
    WorkerStats &ws = stats[w];
    ws.busyUs += busy_us;
    ws.served += requests;
    ++ws.dispatches;
    ws.energyJoules += res.energyJoules;
    ws.fabricWaitUs += usFromTicks(res.fabricWait);
    ws.cacheHits += res.cacheHits;
    ws.cacheMisses += res.cacheMisses;
    ws.cacheSavedUs += usFromTicks(res.cacheSavedTicks);
    energyJoules += res.energyJoules;
    served += requests;
    ++dispatches;
    _run.acc.energyJoules += res.energyJoules;
}

void
NodeScheduler::round()
{
    ServingRun &run = _run;
    const ServingConfig &cfg = run.cfg;
    const std::vector<double> &arrival_us = run.arrivals.us;
    const std::uint32_t max_batch = cfg.maxCoalescedBatch;

    // The earliest-free active worker claims the next dispatch.
    // Decisions read the double-precision microsecond state, not
    // the event clock; events order the nodes' rounds globally.
    const std::size_t w = earliest();
    double t = freeUs[w];
    admitUpTo(t);
    if (_queue.empty()) {
        if (next >= ids.size())
            return; // drained: nothing left to schedule
        t = arrival_us[ids[next]];
        // A parking node re-fires at that arrival's tick instead of
        // admitting it at a stale event time (see parkIdle).
        if (run.parkIdle && ticksFromUs(t) > run.events.now()) {
            run.events.schedule(index, ticksFromUs(t),
                                &NodeScheduler::fire, this);
            return;
        }
        admitUpTo(t);
    }

    double dispatch_us = std::max(t, _queue.front().arrivalUs);

    // Dynamic batching window: an underfull batch waits for more
    // arrivals, dispatching as soon as it fills or the window timer
    // expires - whichever comes first. The adaptive batcher swaps in
    // its controlled window; updates land at dispatch boundaries in
    // request-id order, so the trajectory is jobs-independent.
    const double window_us =
        run.adaptive ? batcher.windowUs() : cfg.coalesceWindowUs;
    if (window_us > 0.0 && _queue.size() < max_batch) {
        const double deadline_us = dispatch_us + window_us;
        while (_queue.size() < max_batch && next < ids.size() &&
               arrival_us[ids[next]] <= deadline_us) {
            const double ta = arrival_us[ids[next]];
            const std::size_t before = _queue.size();
            admitUpTo(ta);
            if (_queue.size() > before)
                dispatch_us = ta;
        }
        if (_queue.size() < max_batch)
            dispatch_us = deadline_us; // timer fired underfull
    }

    // Pop the batch in arrival order, shedding requests whose
    // queueing time exceeded the timeout.
    _batchIds.clear();
    _batchArrivals.clear();
    while (!_queue.empty() && _batchIds.size() < max_batch) {
        const Pending req = _queue.front();
        _queue.pop_front();
        if (cfg.queueTimeoutUs > 0.0 &&
            dispatch_us - req.arrivalUs > cfg.queueTimeoutUs) {
            ++droppedTimeout;
            classifyDrop(req.id);
            continue;
        }
        _batchIds.push_back(req.id);
        _batchArrivals.push_back(req.arrivalUs);
    }
    if (_batchIds.empty()) {
        // Everything popped had timed out; the worker idles at the
        // dispatch point and retries next round.
        freeUs[w] = std::max(freeUs[w], dispatch_us);
        wake(ticksFromUs(freeUs[earliest()]));
        return;
    }
    const std::size_t requests = _batchIds.size();

    const InferenceBatch merged =
        coalesceRequests(run.arrivals.payloads, _batchIds);
    // On a shared node, pull the worker's private clock forward to
    // the dispatch point so its fabric occupations happen in global
    // time rather than on a densely-packed private timeline.
    if (fabric)
        workers[w]->alignClock(ticksFromUs(dispatch_us));
    // Snapshot the fabric frontier before the primary books
    // occupancy so a hedge win can cancel its residual.
    Fabric::Frontier primary_snap;
    if (run.hedging && fabric)
        primary_snap = fabric->snapshot();
    const InferenceResult res = workers[w]->infer(merged);
    double service_us = usFromTicks(res.latency());
    service_us += run.gatherUs(*this, dispatch_us, merged, res);
    const double done_us = dispatch_us + service_us;

    // Hedged duplicate: once enough service history is banked, a
    // dispatch running past the q-quantile of observed service times
    // is a straggler; clone it onto the hedge peer, delayed by that
    // quantile, and let the first completion win. The loser is
    // cancelled at the winner tick: its worker frees, its residual
    // fabric occupancy rolls back, and its burned time/energy is
    // accounted as hedge waste, separate from useful work.
    double complete_us = done_us;
    bool clone_won = false;
    if (run.hedging && run.svcQuantile.ready()) {
        const double delay_us =
            run.svcQuantile.quantileUs(run.ctrl.hedgeQuantile);
        const HedgePeer peer = service_us > delay_us
                                   ? run.hedgePeer(*this, w)
                                   : HedgePeer{};
        NodeScheduler *p = peer.node;
        const std::size_t w2 = peer.worker;
        const double clone_start =
            p ? std::max(dispatch_us + delay_us, p->freeUs[w2]) : 0.0;
        if (p && clone_start < done_us) {
            CtrlStats &hedge = run.acc.ctrl;
            ++hedge.hedgeDispatches;
            Fabric::Frontier clone_snap;
            if (p->fabric) {
                clone_snap = p->fabric->snapshot();
                p->workers[w2]->alignClock(ticksFromUs(clone_start));
            }
            const InferenceResult clone_res =
                p->workers[w2]->infer(merged);
            const double clone_service =
                usFromTicks(clone_res.latency());
            const double clone_done = clone_start + clone_service;
            if (clone_done < done_us) {
                // Clone wins; the primary is cancelled at
                // clone_done. Rolling back to the pre-primary
                // frontier keeps the clone's bookings (they end by
                // clone_done) and reclaims the primary's residual.
                ++hedge.hedgeWins;
                clone_won = true;
                complete_us = clone_done;
                const double burned = clone_done - dispatch_us;
                freeUs[w] = clone_done;
                stats[w].busyUs += burned;
                stats[w].fabricWaitUs += usFromTicks(res.fabricWait);
                hedge.hedgeWastedUs += burned;
                hedge.hedgeEnergyJoules +=
                    service_us > 0.0
                        ? res.energyJoules * (burned / service_us)
                        : 0.0;
                if (fabric)
                    fabric->cancelAfter(primary_snap,
                                        ticksFromUs(clone_done));
                p->freeUs[w2] = clone_done;
                p->credit(w2, clone_service, requests, clone_res);
            } else {
                // Primary wins (ties included); cancel the clone.
                ++hedge.hedgeLosses;
                const double burned = done_us - clone_start;
                p->freeUs[w2] = std::max(p->freeUs[w2], done_us);
                p->stats[w2].busyUs += burned;
                hedge.hedgeWastedUs += burned;
                hedge.hedgeEnergyJoules +=
                    clone_service > 0.0
                        ? clone_res.energyJoules *
                              (burned / clone_service)
                        : 0.0;
                if (p->fabric)
                    p->fabric->cancelAfter(clone_snap,
                                           ticksFromUs(done_us));
            }
        }
    }
    if (run.hedging)
        run.svcQuantile.add(service_us);
    if (!clone_won) {
        freeUs[w] = done_us;
        credit(w, service_us, requests, res);
    }

    // On the open-loop path this is service_us bit for bit; only a
    // winning clone shortens the effective service time.
    const double effective_service_us =
        clone_won ? complete_us - dispatch_us : service_us;
    const ServingAccumulator::Batch outcome =
        run.acc.record(_batchIds, _batchArrivals, dispatch_us,
                       complete_us, effective_service_us);

    if (run.adaptive)
        batcher.update(_queue.size(), max_batch, outcome.worstUs,
                       outcome.tightestTargetUs);

    if (run.scaling) {
        run.intervalBusyUs += effective_service_us;
        while (run.scaler.due(dispatch_us)) {
            const int dir = run.scaler.decide(run.intervalBusyUs);
            run.intervalBusyUs = 0.0;
            if (dir != 0)
                run.scale(dir, dispatch_us);
        }
    }
    wake(ticksFromUs(freeUs[earliest()]));
}

// ---------------------------------------------------------------------
// ServingRun
// ---------------------------------------------------------------------

ServingRun::ServingRun(const ServingConfig &c, const CtrlConfig &ct,
                       const DlrmConfig &model, std::uint32_t num_nodes,
                       std::uint32_t p, bool park_idle)
    : cfg(c), ctrl(ct), pool(p), adaptive(ct.adaptive),
      hedging(ct.hedge && p > 1), scaling(ct.scale && p > 1),
      parkIdle(park_idle), arrivals(model, c), events(num_nodes),
      acc(c), scaler(ct, p, std::max(1000.0, 32.0 * meanGapUs(c)))
{
}

NodeScheduler &
ServingRun::addNode(std::vector<System *> workers, Fabric *fabric)
{
    if (workers.empty())
        fatal("serving node ", nodes.size(), " has no workers");
    const auto index = static_cast<std::uint32_t>(nodes.size());
    // The round chain keeps one event outstanding; drain wakes can
    // add a few more.
    events.reserve(index, 4);
    return nodes.emplace_back(*this, index, std::move(workers), fabric);
}

void
ServingRun::simulate()
{
    for (NodeScheduler &node : nodes)
        node.wake(0);
    events.run();
}

ServingStats
ServingRun::finish()
{
    const double last_us = acc.lastCompletionUs;
    const std::uint64_t offered = cfg.requests;
    ServingStats out;
    out.offered = offered;
    out.served = acc.served;
    out.droppedBurstArrivals = acc.droppedBurst;
    out.droppedIdleArrivals = acc.droppedIdle;
    out.meanServiceUs = acc.service.mean();
    out.meanQueueUs = acc.queueing.mean();
    // StatHistogram keeps an exact running average alongside the
    // buckets, so this mean is not bucket-quantized.
    out.meanLatencyUs = acc.latency.mean();
    out.p50Us = acc.latency.quantile(0.50);
    out.p95Us = acc.latency.quantile(0.95);
    out.p99Us = acc.latency.quantile(0.99);
    out.p999Us = acc.latency.quantile(0.999);
    out.maxLatencyUs = acc.latency.max();
    out.latencyOverflow = acc.latency.overflow();
    out.offeredRps = cfg.arrivalRatePerSec;
    out.throughputRps =
        last_us > 0.0
            ? static_cast<double>(acc.served) * 1e6 / last_us
            : 0.0;
    out.energyJoules = acc.energyJoules;
    out.dispatches = acc.dispatches;
    out.meanCoalescedRequests =
        acc.dispatches ? static_cast<double>(acc.served) /
                             static_cast<double>(acc.dispatches)
                       : 0.0;
    out.slaTargetUs = cfg.slaTargetUs;
    out.slaHitRate = cfg.slaTargetUs > 0.0
                         ? static_cast<double>(acc.slaHits) /
                               static_cast<double>(offered)
                         : 0.0;

    // Idle energy: time a worker spent provisioned but not serving,
    // priced at a fraction of its spec draw. A worker the autoscaler
    // drained stops accruing; otherwise it is provisioned throughout.
    constexpr double kIdleEnergyFraction = 0.3;
    double busy_total_us = 0.0;
    for (NodeScheduler &node : nodes) {
        out.droppedQueueFull += node.droppedFull;
        out.droppedTimeout += node.droppedTimeout;
        out.cache += node.cacheStats();
        for (std::size_t i = 0; i < node.workers.size(); ++i) {
            WorkerStats &ws = node.stats[i];
            ws.utilization = last_us > 0.0 ? ws.busyUs / last_us : 0.0;
            busy_total_us += ws.busyUs;
            out.fabricWaitUs += ws.fabricWaitUs;
            out.perWorker.push_back(ws);
            if (node.up[i])
                node.upUs[i] += last_us - node.upSinceUs[i];
            const double idle_us =
                std::max(0.0, node.upUs[i] - ws.busyUs);
            const double watts =
                node.workers[i]->power().watts(node.workers[i]->design());
            out.idleEnergyJoules +=
                idle_us * 1e-6 * watts * kIdleEnergyFraction;
        }
    }
    out.utilization =
        last_us > 0.0
            ? busy_total_us /
                  (last_us * static_cast<double>(out.perWorker.size()))
            : 0.0;
    out.joulesPerQuery =
        acc.served ? (acc.energyJoules + out.idleEnergyJoules +
                      acc.ctrl.hedgeEnergyJoules) /
                         static_cast<double>(acc.served)
                   : 0.0;

    // Per-SLO-class outcome: offered counts come straight from the
    // round-robin stamping, attainment counts drops as misses.
    const std::size_t num_classes = cfg.sloClasses.size();
    for (std::size_t c = 0; c < num_classes; ++c) {
        SloClassStats cs;
        cs.name = cfg.sloClasses[c].name;
        cs.targetUs = cfg.sloClasses[c].p99TargetUs;
        cs.offered = offered / num_classes +
                     (c < offered % num_classes ? 1 : 0);
        cs.served = acc.classServed[c];
        cs.p99Us = acc.classLatency[c].quantile(0.99);
        cs.attainment =
            cs.offered ? static_cast<double>(acc.classWithin[c]) /
                             static_cast<double>(cs.offered)
                       : 0.0;
        out.perClass.push_back(std::move(cs));
    }

    out.ctrl = acc.ctrl;
    out.ctrl.policy = ctrlPartName(ctrl);
    if (!adaptive) {
        out.ctrl.windowMinUs = cfg.coalesceWindowUs;
        out.ctrl.windowMeanUs = cfg.coalesceWindowUs;
        out.ctrl.windowMaxUs = cfg.coalesceWindowUs;
        out.ctrl.windowFinalUs = cfg.coalesceWindowUs;
    } else if (nodes.size() == 1) {
        nodes.front().batcher.fill(&out.ctrl);
    } else {
        // Merge the per-node window trajectories: updates sum,
        // extrema merge, the mean weights by update count, and the
        // final window averages across nodes.
        double weighted_sum_us = 0.0;
        double final_sum_us = 0.0;
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            CtrlStats one;
            nodes[n].batcher.fill(&one);
            out.ctrl.windowUpdates += one.windowUpdates;
            final_sum_us += one.windowFinalUs;
            weighted_sum_us +=
                one.windowMeanUs * static_cast<double>(one.windowUpdates);
            out.ctrl.windowMinUs = n ? std::min(out.ctrl.windowMinUs,
                                                one.windowMinUs)
                                     : one.windowMinUs;
            out.ctrl.windowMaxUs = n ? std::max(out.ctrl.windowMaxUs,
                                                one.windowMaxUs)
                                     : one.windowMaxUs;
        }
        out.ctrl.windowFinalUs =
            final_sum_us / static_cast<double>(nodes.size());
        out.ctrl.windowMeanUs =
            out.ctrl.windowUpdates
                ? weighted_sum_us /
                      static_cast<double>(out.ctrl.windowUpdates)
                : out.ctrl.windowFinalUs;
    }
    if (scaling) {
        scaler.fill(&out.ctrl);
    } else {
        out.ctrl.activeMin = pool;
        out.ctrl.activeMax = pool;
        out.ctrl.meanActiveWorkers = static_cast<double>(pool);
    }
    return out;
}

} // namespace centaur
