/**
 * @file
 * Simulator-performance suite: how fast the simulator itself runs.
 * Every other suite measures the modeled system; this one measures
 * the model. Five canonical cells (contended serving, uncontended
 * serving, an 8-node cluster, a cache-tier run and a control-plane
 * run) each time their engine end to end (requests_per_sec,
 * sim_wall_us) and then replay the engines' event pattern through
 * the event kernel (sim/event_queue.hh: POD {tick, seq, fn, ctx}
 * records in a flat quaternary heap, ShardedEventQueue for the
 * cluster cell) for sim_events_per_sec.
 *
 * Each record also carries sim_events, the events its engine
 * executed: a pure function of the simulated work, so CI requires it
 * to equal the committed baseline exactly (tools/check_bench.py). The
 * wall-derived rates are host-time measurements: they are gated only
 * loosely against the baseline and excluded from byte-identity
 * comparisons, like sim_wall_us. Host-speed verdicts belong to
 * bench/perf's paired runs.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/engine.hh"
#include "core/report.hh"
#include "core/server.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/walltime.hh"
#include "suite.hh"

using namespace centaur;

namespace centaur::bench {

namespace {

/** Events each kernel replays per timing run. */
constexpr std::uint64_t kReplayEvents = 200000;
/** Timing runs per kernel; the fastest wins (best-of-N minima). */
constexpr int kReplayRuns = 3;

/** Re-firing chain context for the current-kernel replays. */
struct ReplayChain
{
    EventQueue *q = nullptr;
    ShardedEventQueue *sq = nullptr;
    std::uint32_t shard = 0;
    std::uint64_t *acc = nullptr;

    static void
    fire(void *p)
    {
        auto *c = static_cast<ReplayChain *>(p);
        ++*c->acc;
        if (c->q) {
            c->q->scheduleIn(1 + c->q->executed() % 5,
                             &ReplayChain::fire, p);
        } else {
            c->sq->schedule(c->shard,
                            c->sq->now() + 1 + c->sq->executed() % 5,
                            &ReplayChain::fire, p);
        }
    }
};

/** The current kernel on the same schedule: EventQueue, fn+ctx. */
std::uint64_t
eventQueueReplayWallUs(std::uint32_t chains)
{
    std::uint64_t best = 0;
    for (int run = 0; run < kReplayRuns; ++run) {
        EventQueue q;
        q.reserve(chains + 1);
        std::uint64_t acc = 0;
        std::vector<ReplayChain> ctx(chains);
        const std::uint64_t t0 = wallMicros();
        for (std::uint32_t c = 0; c < chains; ++c) {
            ctx[c] = ReplayChain{&q, nullptr, 0, &acc};
            q.schedule(c % 7, &ReplayChain::fire, &ctx[c]);
        }
        while (q.executed() < kReplayEvents)
            q.step();
        const std::uint64_t wall = wallMicros() - t0;
        q.clear(); // chains still pending: drop, don't run
        if (run == 0 || wall < best)
            best = wall;
        if (acc == 0)
            fatal("event-queue replay executed nothing");
    }
    return best > 0 ? best : 1;
}

/** The cluster kernel: per-shard heaps, lowest-(tick, seq) merge. */
std::uint64_t
shardedReplayWallUs(std::uint32_t chains)
{
    std::uint64_t best = 0;
    for (int run = 0; run < kReplayRuns; ++run) {
        ShardedEventQueue q(chains);
        std::uint64_t acc = 0;
        std::vector<ReplayChain> ctx(chains);
        const std::uint64_t t0 = wallMicros();
        for (std::uint32_t c = 0; c < chains; ++c) {
            q.reserve(c, 4);
            ctx[c] = ReplayChain{nullptr, &q, c, &acc};
            q.schedule(c, c % 7, &ReplayChain::fire, &ctx[c]);
        }
        while (q.executed() < kReplayEvents)
            q.step();
        const std::uint64_t wall = wallMicros() - t0;
        if (run == 0 || wall < best)
            best = wall;
        if (acc == 0)
            fatal("sharded replay executed nothing");
    }
    return best > 0 ? best : 1;
}

Json
suiteSimPerf(SuiteContext &ctx)
{
    constexpr int kPreset = 1;
    const DlrmConfig model = dlrmPreset(kPreset);

    struct Cell
    {
        const char *name;
        std::string spec;     //!< serving or cluster spec
        const char *workload; //!< workload spec string
        bool cluster = false;
        bool contend = false;       //!< node fabric on (event path)
        std::uint32_t workers = 0;  //!< per node
        std::uint32_t chains = 0;   //!< replay re-fire chains
        bool sharded = false;       //!< replay on ShardedEventQueue
        // Results.
        std::uint64_t requests = 0;
        std::uint64_t served = 0;
        std::uint64_t simEvents = 0; //!< events the engine executed
        std::uint64_t engineWallUs = 0;
        std::uint64_t kernelWallUs = 0;
        std::uint64_t seed = 0;
        std::string workloadName{};
    };

    // The five canonical cells. serving_fast_path (named for a
    // closed-form loop the engine no longer has) is the uncontended
    // single-node baseline; cache and ctrl pin the cache tier and
    // the control plane.
    std::vector<Cell> cells;
    cells.push_back({"serving_contended", "cpu+gpu", "uniform",
                     false, true, 4, 4, false});
    cells.push_back({"serving_fast_path", "cpu", "uniform",
                     false, false, 4, 4, false});
    cells.push_back({"cluster_8node",
                     "cluster:8x(cpu)/shard:range:2/net:1.5:2:25",
                     "zipf:1.1", true, true, 2, 8, true});
    cells.push_back({"cache", "cpu/cache:16", "zipf:1.1",
                     false, true, 2, 2, false});
    cells.push_back({"ctrl", "cpu/ctrl:adaptive", "uniform",
                     false, false, 4, 4, false});

    ctx.notef("sim_perf on %s: %zu cells, %llu-event kernel replays "
              "(best of %d), rates are host time\n\n",
              model.name.c_str(), cells.size(),
              static_cast<unsigned long long>(kReplayEvents),
              kReplayRuns);

    // Cells run sequentially on the calling thread - never on the
    // --jobs pool - so wall-clock rates are not polluted by sibling
    // cells contending for cores, and each cell's globalSimEvents()
    // delta counts its own engine's events only.
    for (Cell &c : cells) {
        ServingConfig cfg;
        cfg.batchPerRequest = 8;
        cfg.maxCoalescedBatch = 1;
        cfg.workers = c.workers;
        cfg.contend = c.contend;
        cfg.applyWorkload(parseWorkloadSpec(c.workload));
        const std::uint64_t events0 = globalSimEvents();
        if (c.cluster) {
            cfg.arrivalRatePerSec = 1200.0;
            cfg.requests = 160;
            cfg.seed = clusterSweepSeed(c.spec, model.name,
                                        cfg.arrivalRatePerSec) +
                       ctx.seed();
            const ClusterSpec spec = parseClusterSpec(c.spec);
            const std::uint64_t t0 = wallMicros();
            const ClusterStats s = runClusterSim(spec, model, cfg);
            c.engineWallUs = wallMicros() - t0;
            c.served = s.total.served;
        } else {
            cfg.arrivalRatePerSec = 1e6;
            cfg.requests = 240;
            cfg.seed = servingSweepSeed(kPreset, 1, 1, 0.0) +
                       ctx.seed();
            const std::uint64_t t0 = wallMicros();
            const ServingStats s = runServingSim(c.spec, model, cfg);
            c.engineWallUs = wallMicros() - t0;
            c.served = s.served;
        }
        c.simEvents = globalSimEvents() - events0;
        c.requests = cfg.requests;
        c.seed = cfg.seed;
        c.workloadName = workloadSpecName(cfg.workloadConfig());
        if (c.engineWallUs == 0)
            c.engineWallUs = 1;

        c.kernelWallUs = c.sharded
                             ? shardedReplayWallUs(c.chains)
                             : eventQueueReplayWallUs(c.chains);
    }

    TextTable table("Simulator performance: engine rate and kernel "
                    "replay (host time)");
    table.setHeader({"cell", "req/s", "wall (ms)", "sim events",
                     "kernel Mev/s"});
    Json records = Json::array();
    for (const Cell &c : cells) {
        const double req_per_sec =
            static_cast<double>(c.requests) * 1e6 /
            static_cast<double>(c.engineWallUs);
        const double ev_per_sec =
            static_cast<double>(kReplayEvents) * 1e6 /
            static_cast<double>(c.kernelWallUs);
        table.addRow({c.name, TextTable::fmt(req_per_sec, 0),
                      TextTable::fmt(c.engineWallUs / 1000.0, 1),
                      std::to_string(c.simEvents),
                      TextTable::fmt(ev_per_sec / 1e6, 1)});

        Json rec = reportStamp("sim_perf_entry", c.seed);
        rec["cell"] = c.name;
        rec["spec"] = c.spec;
        rec["model"] = model.name;
        rec["workload"] = c.workloadName;
        rec["requests"] = static_cast<std::int64_t>(c.requests);
        rec["served"] = static_cast<std::int64_t>(c.served);
        rec["sim_events"] = static_cast<std::int64_t>(c.simEvents);
        rec["requests_per_sec"] = req_per_sec;
        rec["sim_wall_us"] =
            static_cast<std::int64_t>(c.engineWallUs);
        rec["events_replayed"] =
            static_cast<std::int64_t>(kReplayEvents);
        rec["sim_events_per_sec"] = ev_per_sec;
        records.push(std::move(rec));
    }
    ctx.emitTable(table);

    ctx.notef("\ntakeaway: sim events are deterministic and gated "
              "against the baseline; rates are host time.\n");

    Json data = Json::object();
    data["records"] = records;
    return data;
}

} // namespace

void
registerSimPerfSuites(std::vector<Suite> &suites)
{
    suites.push_back(
        {"sim_perf",
         "simulator self-measurement: engine rates + kernel replay",
         suiteSimPerf,
         "cpu, cpu+gpu, 8-node cluster, cache and ctrl cells (fixed)"});
}

} // namespace centaur::bench
