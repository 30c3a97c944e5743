/**
 * @file
 * centaur_perf: the host-time benchmark of the simulator itself.
 *
 *   centaur_perf --workload NAME [--seed N] [--budget-s S]
 *                [--json OUT] [--traced-reps K] [--setup-builds N]
 *                [--spans-out TRACE] [--golden FILE|-]
 *
 * One process runs one workload, single-threaded, in four phases:
 *
 *   1. one warm-up rep, discarded;
 *   2. setup: 2 discarded + N timed constructions of one rep's
 *      systems (construction only, teardown untimed) -> setup_s;
 *   3. measured reps in a closed loop until the budget is spent ->
 *      sim_req_per_s (best rep), then peak RSS;
 *   4. K traced reps: the same work through TimedSystem decorators,
 *      followed by a stage replay, giving the per-layer split.
 *
 * A rep calls a stable library entry point (runServingSim,
 * runClusterSim, runSweep) on freshly built systems and hashes its
 * report with FNV-1a-64. A rep fails when it throws or when its
 * digest differs from golden.json (or, for a seed with no golden
 * entry, from the warm-up rep's). Any failure, a traced digest that
 * differs from the untraced one, or a replay that does not reproduce
 * the recorded ticks on an uncontended workload makes the process
 * exit 1.
 *
 * Every timing here is host time from wallMicros(); simulated
 * results are printed next to the digest as information only.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/engine.hh"
#include "cluster/report.hh"
#include "cluster/topology.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "core/server.hh"
#include "core/system_builder.hh"
#include "dlrm/model_registry.hh"
#include "dlrm/workload_spec.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/walltime.hh"
#include "trace.hh"

// Set by bench/perf/CMakeLists.txt; the fallbacks keep this file
// parsable by tools that see it outside that project.
#ifndef CENTAUR_PERF_DIR
#define CENTAUR_PERF_DIR "bench/perf"
#endif
#ifndef CENTAUR_PERF_BUILD_TYPE
#define CENTAUR_PERF_BUILD_TYPE "unknown"
#endif

namespace centaur::perf {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** What one rep produced. */
struct RepOutput
{
    std::uint64_t digest = kFnvOffset;
    /** Simulated requests completed, or sweep points measured. */
    double work = 0.0;
    /** Simulated results: information only, never gated. */
    Json info = Json::object();
};

/** Per-layer values of one traced rep, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

/** Hash one report document into @p out, timing the dump. */
void
emitReport(const Json &report, RepOutput &out, SpanLog *log)
{
    std::string text;
    if (log) {
        ScopedSpan span(*log, "core.report");
        text = report.dump();
    } else {
        text = report.dump();
    }
    out.digest = fnv1a(out.digest, text);
}

void
servingInfo(const ServingStats &s, Json &info)
{
    info["p50_us"] = s.p50Us;
    info["p99_us"] = s.p99Us;
    info["throughput_rps"] = s.throughputRps;
    info["utilization"] = s.utilization;
    info["cache_hit_rate"] = s.cache.hitRate();
    info["energy_joules"] = s.energyJoules;
}

/** Sum the counts every decorated worker recorded. */
void
tallyCalls(const std::vector<std::unique_ptr<TimedSystem>> &timed,
           LayerValues &v)
{
    for (const auto &ts : timed) {
        for (const CapturedCall &c : ts->calls()) {
            v["cache.llc_accesses"] += static_cast<double>(c.llcAccesses);
            v["cache.llc_misses"] += static_cast<double>(c.llcMisses);
            v["dlrm.lookups"] +=
                static_cast<double>(c.batch.totalLookups());
            v["cachetier.hits"] += static_cast<double>(c.cacheHits);
            v["cachetier.misses"] += static_cast<double>(c.cacheMisses);
        }
    }
}

void
tallyServing(const ServingStats &s, LayerValues &v)
{
    for (const FabricResourceStats &f : s.fabric)
        v["core.fabric.grants"] += static_cast<double>(f.grants);
    v["core.fabric.wait_sim_us"] += s.fabricWaitUs;
    v["ctrlplane.hedge_dispatches"] +=
        static_cast<double>(s.ctrl.hedgeDispatches);
}

/** Decorate every worker pointer in place. */
std::vector<std::unique_ptr<TimedSystem>>
decorate(std::vector<System *> &workers, SpanLog &log)
{
    std::vector<std::unique_ptr<TimedSystem>> timed;
    for (System *&w : workers) {
        timed.push_back(std::make_unique<TimedSystem>(*w, log));
        w = timed.back().get();
    }
    return timed;
}

/**
 * The replay half of a traced rep: every worker's recorded calls
 * through the stage classes, then the request payloads drawn again
 * from a generator with the engine's config and seed.
 */
std::uint64_t
replay(const std::vector<std::unique_ptr<TimedSystem>> &timed,
       const DlrmConfig &model, const WorkloadConfig &wl,
       std::uint32_t batches, SpanLog &log)
{
    ScopedSpan span(log, "replay");
    std::uint64_t mismatches = 0;
    for (const auto &ts : timed)
        mismatches += replayCalls(*ts, log);
    ScopedSpan gen_span(log, "dlrm.workload");
    WorkloadGenerator gen(model, wl);
    for (std::uint32_t i = 0; i < batches; ++i)
        (void)gen.next();
    return mismatches;
}

/** One benchmark workload: a fixed simulator input, seeded. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** One untraced rep through the library entry point. */
    virtual RepOutput run(std::uint64_t seed) const = 0;

    /**
     * Build the systems one rep builds, the way the rep builds them,
     * and return the host microseconds spent constructing them.
     * Teardown happens outside the timed intervals.
     */
    virtual double buildUs(std::uint64_t seed) const = 0;

    /**
     * One traced rep: the same simulation through decorated
     * workers, then the replay. Fills @p counts with the layer
     * counts of the run and returns, in @p mismatches, how many
     * replayed latencies differ from the recorded ones.
     */
    virtual RepOutput runTraced(std::uint64_t seed, SpanLog &log,
                                LayerValues &counts,
                                std::uint64_t &mismatches) const = 0;

    /** No fabric and no shared cache tier: replay must match ticks. */
    virtual bool uncontended() const = 0;
};

/** Offset added to --seed for the serving and cluster workloads. */
constexpr std::uint64_t kServingSeedBase = 1;

/** Single-node serving on the closed-form (no-fabric) path. */
class ServeWorkload : public Workload
{
  public:
    ServeWorkload(const char *spec, const char *model, double rate_rps,
                  std::uint32_t requests)
        : _spec(spec), _model(parseModel(model)), _rateRps(rate_rps),
          _requests(requests)
    {
    }

    RepOutput
    run(std::uint64_t seed) const override
    {
        const ServingStats stats =
            runServingSim(_spec, _model, config(seed));
        return output(stats, nullptr);
    }

    double
    buildUs(std::uint64_t seed) const override
    {
        const ServingConfig cfg = config(seed);
        const std::uint64_t t0 = wallMicros();
        const auto owned = makeWorkers(_spec, _model, cfg);
        return static_cast<double>(wallMicros() - t0);
    }

    RepOutput
    runTraced(std::uint64_t seed, SpanLog &log, LayerValues &counts,
              std::uint64_t &mismatches) const override
    {
        const ServingConfig cfg = config(seed);
        ScopedSpan rep(log, "rep");
        std::vector<std::unique_ptr<System>> owned;
        {
            ScopedSpan span(log, "core.build");
            owned = makeWorkers(_spec, _model, cfg);
        }
        std::vector<System *> workers;
        for (auto &w : owned)
            workers.push_back(w.get());
        const auto timed = decorate(workers, log);
        ServingStats stats;
        {
            ScopedSpan span(log, "core.engine");
            const std::uint64_t events0 = globalSimEvents();
            stats = ServingEngine(workers, cfg).run();
            counts["sim.events"] =
                static_cast<double>(globalSimEvents() - events0);
        }
        RepOutput out = output(stats, &log);
        tallyCalls(timed, counts);
        tallyServing(stats, counts);
        mismatches = replay(timed, _model, cfg.workloadConfig(),
                            cfg.requests, log);
        return out;
    }

    bool uncontended() const override { return true; }

  private:
    ServingConfig
    config(std::uint64_t seed) const
    {
        ServingConfig cfg;
        cfg.applyWorkload(parseWorkloadSpec("uniform"));
        cfg.workers = 4;
        cfg.batchPerRequest = 8;
        cfg.arrivalRatePerSec = _rateRps;
        cfg.requests = _requests;
        cfg.seed = kServingSeedBase + seed;
        return cfg;
    }

    RepOutput
    output(const ServingStats &stats, SpanLog *log) const
    {
        RepOutput out;
        emitReport(toJson(stats), out, log);
        out.work = static_cast<double>(stats.served);
        servingInfo(stats, out.info);
        return out;
    }

    std::string _spec;
    DlrmConfig _model;
    double _rateRps;
    std::uint32_t _requests;
};

/** An 8-node contended cluster on the event path. */
class ClusterWorkload : public Workload
{
  public:
    ClusterWorkload()
        : _spec(parseClusterSpec(
              "cluster:8x(cpu)/shard:range:2/net:1.5:2:25/cache:4/"
              "ctrl:adaptive:hedge")),
          _model(parseModel("rm-small"))
    {
    }

    RepOutput
    run(std::uint64_t seed) const override
    {
        return output(runClusterSim(_spec, _model, config(seed)),
                      nullptr);
    }

    double
    buildUs(std::uint64_t seed) const override
    {
        const ServingConfig cfg = config(seed);
        const std::uint64_t t0 = wallMicros();
        const ClusterTopology topo(_spec, _model, cfg);
        return static_cast<double>(wallMicros() - t0);
    }

    RepOutput
    runTraced(std::uint64_t seed, SpanLog &log, LayerValues &counts,
              std::uint64_t &mismatches) const override
    {
        const ServingConfig cfg = config(seed);
        ScopedSpan rep(log, "rep");
        std::unique_ptr<ClusterTopology> topo;
        {
            ScopedSpan span(log, "core.build");
            topo = std::make_unique<ClusterTopology>(_spec, _model, cfg);
        }
        std::vector<std::unique_ptr<TimedSystem>> timed;
        for (std::uint32_t n = 0; n < topo->nodes(); ++n) {
            auto node_timed = decorate(topo->node(n).workers, log);
            for (auto &t : node_timed)
                timed.push_back(std::move(t));
        }
        ClusterStats stats;
        {
            ScopedSpan span(log, "core.engine");
            const std::uint64_t events0 = globalSimEvents();
            stats = ClusterEngine(*topo, cfg).run();
            counts["sim.events"] =
                static_cast<double>(globalSimEvents() - events0);
        }
        RepOutput out = output(stats, &log);
        tallyCalls(timed, counts);
        tallyServing(stats.total, counts);
        for (const ClusterNodeStats &ns : stats.perNode)
            for (const FabricResourceStats &f : ns.fabric)
                counts["core.fabric.grants"] +=
                    static_cast<double>(f.grants);
        counts["cluster.net.remote_reads"] =
            static_cast<double>(stats.remoteReads);
        mismatches = replay(timed, _model, cfg.workloadConfig(),
                            cfg.requests, log);
        return out;
    }

    bool uncontended() const override { return false; }

  private:
    static ServingConfig
    config(std::uint64_t seed)
    {
        ServingConfig cfg;
        cfg.applyWorkload(parseWorkloadSpec("zipf:1.1"));
        cfg.workers = 2;
        cfg.contend = true;
        cfg.batchPerRequest = 1;
        cfg.arrivalRatePerSec = 20000.0;
        cfg.requests = 4000;
        cfg.seed = kServingSeedBase + seed;
        return cfg;
    }

    static RepOutput
    output(const ClusterStats &stats, SpanLog *log)
    {
        RepOutput out;
        emitReport(toJson(stats), out, log);
        out.work = static_cast<double>(stats.total.served);
        servingInfo(stats.total, out.info);
        out.info["remote_reads"] = stats.remoteReads;
        out.info["hedge_dispatches"] = stats.total.ctrl.hedgeDispatches;
        return out;
    }

    ClusterSpec _spec;
    DlrmConfig _model;
};

/**
 * The paper's experiment: Table IV design points x Table I models
 * at batch 1 and 4, one fresh system and one warm-up inference per
 * point.
 */
class SweepWorkload : public Workload
{
  public:
    RepOutput
    run(std::uint64_t seed) const override
    {
        RepOutput out;
        double latency_us = 0.0;
        for (const char *spec : kSpecs) {
            const std::vector<SweepEntry> entries =
                runSweep(Scenario{spec, "paper", "uniform"}, kBatches, 1,
                         seed);
            for (const SweepEntry &e : entries) {
                emitReport(toJson(e), out, nullptr);
                latency_us += usFromTicks(e.result.latency());
                out.work += 1.0;
            }
        }
        info(out, latency_us);
        return out;
    }

    double
    buildUs(std::uint64_t) const override
    {
        // One system per point, each gone before the next is built.
        double us = 0.0;
        for (const char *spec : kSpecs) {
            for (const ModelInfo &model : parseModelSet("paper")) {
                for (std::size_t b = 0; b < kBatches.size(); ++b) {
                    const std::uint64_t t0 = wallMicros();
                    const auto sys = makeSystem(spec, model.config);
                    us += static_cast<double>(wallMicros() - t0);
                }
            }
        }
        return us;
    }

    RepOutput
    runTraced(std::uint64_t seed, SpanLog &log, LayerValues &counts,
              std::uint64_t &mismatches) const override
    {
        // runSweep's point loop (core/experiment.cc), with each
        // point's system decorated and replayed before the next.
        RepOutput out;
        double latency_us = 0.0;
        mismatches = 0;
        ScopedSpan rep(log, "rep");
        for (const char *spec : kSpecs) {
            const ResolvedScenario rs =
                resolveScenario(Scenario{spec, "paper", "uniform"});
            const std::string wl_name = workloadSpecName(rs.workload);
            for (const ModelInfo &model : rs.models) {
                const DlrmConfig &cfg = model.config;
                for (std::uint32_t batch : kBatches) {
                    std::unique_ptr<System> sys;
                    {
                        ScopedSpan span(log, "core.build");
                        sys = makeSystem(spec, cfg);
                    }
                    std::vector<System *> one{sys.get()};
                    const auto timed = decorate(one, log);
                    WorkloadConfig wl = rs.workload;
                    wl.batch = batch;
                    wl.seed = modelSweepSeed(model, batch) + seed;
                    SweepEntry entry;
                    {
                        ScopedSpan span(log, "core.engine");
                        WorkloadGenerator gen(cfg, wl);
                        entry.modelName = cfg.name;
                        entry.spec = spec;
                        entry.workload = wl_name;
                        entry.preset = model.paperPreset;
                        entry.batch = batch;
                        entry.seed = wl.seed;
                        entry.result = measureInference(*one[0], gen, 1);
                    }
                    emitReport(toJson(entry), out, &log);
                    latency_us += usFromTicks(entry.result.latency());
                    out.work += 1.0;
                    tallyCalls(timed, counts);
                    // Like runSweep, free the point's system before
                    // anything else allocates.
                    sys.reset();
                    mismatches += replay(timed, cfg, wl, 2, log);
                }
            }
        }
        info(out, latency_us);
        return out;
    }

    bool uncontended() const override { return true; }

  private:
    static void
    info(RepOutput &out, double latency_us)
    {
        out.info["points"] = out.work;
        out.info["mean_latency_us"] =
            out.work > 0.0 ? latency_us / out.work : 0.0;
    }

    static constexpr const char *kSpecs[] = {"cpu", "cpu+gpu",
                                             "cpu+fpga"};
    inline static const std::vector<std::uint32_t> kBatches{1, 4};
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "serve_cpu_gather")
        return std::make_unique<ServeWorkload>("cpu", "dlrm4", 5000.0,
                                               16);
    if (name == "serve_gpu_dense")
        return std::make_unique<ServeWorkload>("gpu", "rm-wide",
                                               14000.0, 8);
    if (name == "cluster_zipf_hedge")
        return std::make_unique<ClusterWorkload>();
    if (name == "paper_sweep")
        return std::make_unique<SweepWorkload>();
    return nullptr;
}

/** Every per-layer metric, in report order, with its unit. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics{
    {"dlrm.forward.host_us", "us"},
    {"dlrm.forward.calls", "count"},
    {"cpu.gather.host_us", "us"},
    {"cache.llc_accesses", "count"},
    {"cache.llc_misses", "count"},
    {"dlrm.lookups", "count"},
    {"cpu.mlp.host_us", "us"},
    {"gpu.gather.host_us", "us"},
    {"gpu.mlp.host_us", "us"},
    {"fpga.eb_streamer.host_us", "us"},
    {"fpga.mlp.host_us", "us"},
    {"cachetier.annotate.host_us", "us"},
    {"cachetier.hits", "count"},
    {"cachetier.misses", "count"},
    {"core.infer.host_us", "us"},
    {"core.infer.calls", "count"},
    {"core.infer.host_us_p50", "us"},
    {"core.infer.host_us_tail", "us"},
    {"core.infer.tail_pct", "%"},
    {"core.infer.samples", "count"},
    {"core.engine.self_host_us", "us"},
    {"sim.events", "count"},
    {"core.fabric.grants", "count"},
    {"core.fabric.wait_sim_us", "us"},
    {"cluster.net.remote_reads", "count"},
    {"ctrlplane.hedge_dispatches", "count"},
    {"dlrm.workload.host_us", "us"},
    {"core.build.host_us", "us"},
    {"core.report.host_us", "us"},
    {"infer.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

/** Spans whose self time is reported as "<name>.host_us". */
const char *const kTimedSpans[] = {
    "dlrm.forward",     "cpu.gather",   "cpu.mlp",
    "gpu.gather",       "gpu.mlp",      "fpga.eb_streamer",
    "fpga.mlp",         "cachetier.annotate",
    "core.infer",       "dlrm.workload", "core.build",
    "core.report",
};

/** The replayed stage spans that together make up one inference. */
const char *const kStageSpans[] = {
    "cachetier.annotate", "cpu.gather", "gpu.gather",
    "fpga.eb_streamer",   "cpu.mlp",    "gpu.mlp",
    "fpga.mlp",           "dlrm.forward",
};

/** Layer values of traced rep @p rep, from its spans and counts. */
LayerValues
layerValues(const SpanLog &log, int rep, LayerValues counts,
            double untraced_rep_us)
{
    const std::map<std::string, double> self = log.selfUs(rep);
    const std::map<std::string, double> calls = log.counts(rep);
    auto get = [](const std::map<std::string, double> &m,
                  const std::string &k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    LayerValues v = std::move(counts);
    for (const char *span : kTimedSpans)
        v[std::string(span) + ".host_us"] = get(self, span);
    v["dlrm.forward.calls"] = get(calls, "dlrm.forward");
    v["core.infer.calls"] = get(calls, "core.infer");
    v["core.engine.self_host_us"] =
        get(self, "core.engine") - get(self, "dlrm.workload");

    double staged_us = 0.0;
    for (const char *span : kStageSpans)
        staged_us += get(self, span);
    const double infer_us = get(self, "core.infer");
    v["infer.unattributed_frac"] =
        infer_us > 0.0 ? 1.0 - staged_us / infer_us : 0.0;

    // The traced rep's own cost is the "rep" span without the replay
    // nested in it.
    double rep_us = 0.0;
    for (const Span &s : log.spans()) {
        if (s.rep != rep)
            continue;
        const double d = static_cast<double>(s.endUs - s.startUs);
        if (std::string(s.name) == "rep")
            rep_us += d;
        else if (std::string(s.name) == "replay")
            rep_us -= d;
    }
    v["trace.overhead_frac"] =
        untraced_rep_us > 0.0 ? rep_us / untraced_rep_us - 1.0 : 0.0;
    return v;
}

/** Options of one invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double budgetSec = 25.0;
    int tracedReps = 3;
    int setupBuilds = 30;
    std::string jsonPath;
    std::string spansPath;
    std::string goldenPath = CENTAUR_PERF_DIR "/golden.json";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "centaur_perf: %s\n"
                 "usage: centaur_perf --workload NAME [--seed N] "
                 "[--budget-s S] [--json OUT] [--traced-reps K] "
                 "[--setup-builds N] [--spans-out TRACE] "
                 "[--golden FILE|-]\n"
                 "workloads: serve_cpu_gather serve_gpu_dense "
                 "cluster_zipf_hedge paper_sweep\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = val;
            else if (arg == "--seed")
                o.seed = std::stoull(val);
            else if (arg == "--budget-s")
                o.budgetSec = std::stod(val);
            else if (arg == "--traced-reps")
                o.tracedReps = std::stoi(val);
            else if (arg == "--setup-builds")
                o.setupBuilds = std::stoi(val);
            else if (arg == "--json")
                o.jsonPath = val;
            else if (arg == "--spans-out")
                o.spansPath = val;
            else if (arg == "--golden")
                o.goldenPath = val;
            else
                usage("unknown option " + arg);
        } catch (const std::exception &) {
            usage("bad value '" + val + "' for " + arg);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.budgetSec < 0.0 || o.tracedReps < 0 || o.setupBuilds < 1)
        usage("--budget-s and --traced-reps must be >= 0, "
              "--setup-builds >= 1");
    return o;
}

/** The golden digest of (workload, seed), when golden.json has one. */
bool
goldenDigest(const Options &o, std::uint64_t *out)
{
    if (o.goldenPath == "-")
        return false;
    std::ifstream in(o.goldenPath);
    if (!in)
        usage("cannot read golden digests " + o.goldenPath);
    std::stringstream ss;
    ss << in.rdbuf();
    Json doc;
    std::string err;
    if (!Json::parse(ss.str(), doc, &err))
        usage(o.goldenPath + ": " + err);
    const Json *per_seed = doc.find(o.workload);
    const Json *hex =
        per_seed ? per_seed->find(std::to_string(o.seed)) : nullptr;
    if (!hex || !hex->isString())
        return false;
    try {
        *out = std::stoull(hex->asString(), nullptr, 16);
    } catch (const std::exception &) {
        usage(o.goldenPath + ": bad digest '" + hex->asString() + "'");
    }
    return true;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

Json
metric(double value, const char *unit)
{
    Json m = Json::object();
    m["value"] = value;
    m["unit"] = unit;
    return m;
}

int
runBenchmark(const Options &opt)
{
    const std::unique_ptr<Workload> wl = makeWorkload(opt.workload);
    if (!wl)
        usage("unknown workload " + opt.workload);
    std::uint64_t expected = 0;
    const bool has_golden = goldenDigest(opt, &expected);
    bool has_expected = has_golden;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Json info = Json::object();
    // Runs one rep and checks its digest; false when the rep failed.
    auto checked = [&](auto &&rep) {
        ++attempted;
        try {
            const RepOutput out = rep();
            info = out.info;
            if (!has_expected) {
                expected = out.digest;
                has_expected = true;
            }
            if (out.digest == expected)
                return true;
            std::fprintf(stderr, "rep %llu: digest %s, expected %s\n",
                         static_cast<unsigned long long>(attempted),
                         hex64(out.digest).c_str(),
                         hex64(expected).c_str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rep %llu threw: %s\n",
                         static_cast<unsigned long long>(attempted),
                         e.what());
        }
        ++failed;
        return false;
    };

    // 1. Warm-up rep: discarded from the timings, still checked.
    RepOutput warm;
    checked([&] {
        warm = wl->run(opt.seed);
        return warm;
    });

    // 2. Set-up time: construction only; teardown is outside the
    //    timed interval.
    std::vector<double> setup_s;
    for (int i = 0; i < opt.setupBuilds + 2; ++i) {
        const double us = wl->buildUs(opt.seed);
        if (i >= 2)
            setup_s.push_back(us * 1e-6);
    }

    // 3. Measured reps, closed loop, until the budget is spent.
    std::vector<double> rep_us;
    std::vector<double> rate;
    const std::uint64_t budget_us =
        static_cast<std::uint64_t>(opt.budgetSec * 1e6);
    const std::uint64_t start_us = wallMicros();
    do {
        double work = 0.0;
        const std::uint64_t t0 = wallMicros();
        const bool ok = checked([&] {
            RepOutput out = wl->run(opt.seed);
            work = out.work;
            return out;
        });
        const std::uint64_t t1 = wallMicros();
        if (ok) {
            const double us = static_cast<double>(t1 - t0);
            rep_us.push_back(us);
            rate.push_back(work / (us * 1e-6));
        }
    } while (wallMicros() - start_us < budget_us);
    const double rss_mib = peakRssMib();

    // 4. Traced reps: decorated workers, spans, stage replay.
    const double untraced_rep_us = median(rep_us);
    SpanLog log;
    std::vector<LayerValues> traced;
    std::uint64_t tick_mismatches = 0;
    bool traced_digest_ok = true;
    for (int r = 0; r < opt.tracedReps; ++r) {
        log.setRep(r);
        LayerValues counts;
        std::uint64_t mismatches = 0;
        const bool ok = checked([&] {
            return wl->runTraced(opt.seed, log, counts, mismatches);
        });
        traced_digest_ok = traced_digest_ok && ok;
        tick_mismatches += mismatches;
        traced.push_back(
            layerValues(log, r, std::move(counts), untraced_rep_us));
    }
    const bool ticks_ok = !wl->uncontended() || tick_mismatches == 0;

    // The best rep: on a shared host, interference only ever slows a
    // rep, often for seconds at a time, so the fastest rep is the
    // steadiest estimate of the simulator's own cost. Across ten
    // processes its spread was a half to a fifth of the median rep's.
    const double best_rate =
        rate.empty() ? 0.0 : *std::max_element(rate.begin(), rate.end());
    Json metrics = Json::object();
    metrics["sim_req_per_s"] = metric(best_rate, "1/s");
    metrics["setup_s"] = metric(median(setup_s), "s");
    metrics["peak_rss_mib"] = metric(rss_mib, "MiB");

    Json layers = Json::object();
    if (!traced.empty()) {
        std::vector<double> infer_us = log.durationsUs("core.infer");
        std::sort(infer_us.begin(), infer_us.end());
        // The highest percentile with at least ten samples beyond it.
        const std::size_t n = infer_us.size();
        const std::size_t tail = n > 10 ? n - 11 : (n ? (n - 1) / 2 : 0);
        for (LayerValues &v : traced) {
            v["core.infer.host_us_p50"] = median(infer_us);
            v["core.infer.host_us_tail"] = n ? infer_us[tail] : 0.0;
            v["core.infer.tail_pct"] =
                n ? 100.0 * static_cast<double>(tail + 1) /
                        static_cast<double>(n)
                  : 0.0;
            v["core.infer.samples"] = static_cast<double>(n);
        }
        for (const auto &[name, unit] : kLayerMetrics) {
            std::vector<double> per_rep;
            for (const LayerValues &v : traced) {
                const auto it = v.find(name);
                per_rep.push_back(it == v.end() ? 0.0 : it->second);
            }
            layers[name] = metric(median(per_rep), unit);
        }
    }

    Json host = Json::object();
    host["nproc"] = std::thread::hardware_concurrency();
    host["compiler"] = "gcc " __VERSION__;
    host["build_type"] = CENTAUR_PERF_BUILD_TYPE;

    Json checks = Json::object();
    checks["golden"] = has_golden ? Json(hex64(expected)) : Json();
    checks["traced_digest_match"] = traced_digest_ok;
    checks["replay_tick_mismatches"] = tick_mismatches;
    checks["replay_ticks_checked"] = wl->uncontended();

    Json samples = Json::object();
    Json rep_arr = Json::array();
    for (double us : rep_us)
        rep_arr.push(us * 1e-6);
    samples["rep_host_s"] = std::move(rep_arr);
    Json setup_arr = Json::array();
    for (double s : setup_s)
        setup_arr.push(s);
    samples["setup_s"] = std::move(setup_arr);

    Json doc = Json::object();
    doc["workload"] = opt.workload;
    doc["seed"] = opt.seed;
    doc["budget_s"] = opt.budgetSec;
    doc["digest"] = hex64(warm.digest);
    doc["reps"] = attempted;
    doc["failed_reps"] = failed;
    doc["traced_reps"] = opt.tracedReps;
    doc["metrics"] = std::move(metrics);
    doc["layers"] = std::move(layers);
    doc["checks"] = std::move(checks);
    doc["info"] = std::move(info);
    doc["samples"] = std::move(samples);
    doc["host"] = std::move(host);

    const std::string text = doc.dump(2);
    if (opt.jsonPath.empty()) {
        std::printf("%s\n", text.c_str());
    } else {
        std::ofstream(opt.jsonPath) << text << "\n";
        std::printf("%s seed %llu: digest %s, %llu reps, %llu failed, "
                    "%.4g sim req/s (host), setup %.4g s, "
                    "peak RSS %.1f MiB\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    hex64(warm.digest).c_str(),
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed),
                    best_rate, median(setup_s), rss_mib);
    }
    if (!opt.spansPath.empty())
        std::ofstream(opt.spansPath) << log.chromeTrace().dump() << "\n";
    return failed == 0 && ticks_ok ? 0 : 1;
}

} // namespace

} // namespace centaur::perf

int
main(int argc, char **argv)
{
    return centaur::perf::runBenchmark(
        centaur::perf::parseOptions(argc, argv));
}
