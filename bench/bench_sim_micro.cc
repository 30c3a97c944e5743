/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event queue scheduling, cache tag lookups (miss-heavy, hit-heavy and
 * the full L1/L2/LLC chain), the LLC's 16-bit tag store widening,
 * building and tearing down a hierarchy, DRAM bank timing, the Zipf
 * sampler, the EB-Streamer gather loop, the hot-row cache tier, the
 * functional forward pass and building a serving fleet. These bound
 * the wall-clock cost of the paper-reproduction sweeps.
 */

#include <benchmark/benchmark.h>

#include "cache/hierarchy.hh"
#include "cachetier/cache_tier.hh"
#include "core/server.hh"
#include "dlrm/model_registry.hh"
#include "dlrm/reference_model.hh"
#include "dlrm/workload.hh"
#include "fpga/mlp_unit.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace centaur;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<Tick>((i * 7919) % 100000),
                       [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The allocation-free schedule path: POD fn+ctx events into a
// reserved heap, the representation every engine hot loop uses. The
// gap to BM_EventQueueScheduleRun is the boxed-lambda overhead.
void
BM_EventQueueScheduleDrain(benchmark::State &state)
{
    struct Ctx
    {
        std::uint64_t sink = 0;
        static void
        fire(void *p)
        {
            ++static_cast<Ctx *>(p)->sink;
        }
    };
    for (auto _ : state) {
        EventQueue q;
        q.reserve(1024);
        Ctx ctx;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<Tick>((i * 7919) % 100000),
                       &Ctx::fire, &ctx);
        q.run();
        benchmark::DoNotOptimize(ctx.sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleDrain);

// The cluster engine's kernel: per-shard heaps merged by lowest
// (tick, seq). Events land round-robin so every step exercises the
// cross-shard merge scan.
void
BM_ShardedEventQueueScheduleDrain(benchmark::State &state)
{
    const auto shards = static_cast<std::uint32_t>(state.range(0));
    struct Ctx
    {
        std::uint64_t sink = 0;
        static void
        fire(void *p)
        {
            ++static_cast<Ctx *>(p)->sink;
        }
    };
    for (auto _ : state) {
        ShardedEventQueue q(shards);
        for (std::uint32_t s = 0; s < shards; ++s)
            q.reserve(s, 1024 / shards + 1);
        Ctx ctx;
        for (int i = 0; i < 1024; ++i)
            q.schedule(static_cast<std::uint32_t>(i) % shards,
                       static_cast<Tick>((i * 7919) % 100000),
                       &Ctx::fire, &ctx);
        q.run();
        benchmark::DoNotOptimize(ctx.sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ShardedEventQueueScheduleDrain)->Arg(4)->Arg(16);

void
BM_CacheRandomAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{"llc", 35 * kMiB, 20, 64, 18.0,
                            ReplacementPolicy::Lru});
    Rng rng(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBelow(1 << 28) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheRandomAccess);

// The LRU-hit path: 16 MiB of lines, warmed into the 35 MiB LLC, so
// nearly every access hits and re-ranks its set.
void
BM_CacheResidentAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{"llc", 35 * kMiB, 20, 64, 18.0,
                            ReplacementPolicy::Lru});
    constexpr std::uint64_t kLines = 16 * kMiB / 64;
    for (std::uint64_t line = 0; line < kLines; ++line)
        cache.access(line * 64);
    Rng rng(42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(rng.nextBelow(kLines) * 64));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheResidentAccess);

// The LLC's 16-bit tag store through its whole life: build it from a
// warm pool, fillRun Table I's largest MLP weight set, fill the last
// set, hit each of its lines and evict one, 4096 uniform accesses with
// 16-bit tags, one access whose tag needs 17 bits (the store widens
// to 32-bit tags), 4096 accesses more, destroy it. CI runs it under
// the sanitizers too: the packed 16-bit vector steps end exactly at
// each set's last way, so a stray load past the last set would show.
void
BM_CacheLlcNarrowThenWiden(benchmark::State &state)
{
    const CacheConfig cfg = broadwellHierarchyConfig().llc;
    const std::uint64_t sets = cfg.sets();
    const std::uint64_t narrowLines = sets << 16;
    {
        Cache warm(cfg);
        warm.access(narrowLines * cfg.lineBytes);
    }
    Rng rng(42);
    for (auto _ : state) {
        Cache llc(cfg);
        llc.fillRun(Addr{1} << 30,
                    static_cast<std::uint64_t>(568.5 * kKiB) / cfg.lineBytes);
        for (std::uint64_t k = 0; k <= 2 * cfg.ways; ++k) {
            const std::uint64_t tag = k < 2 * cfg.ways ? k % cfg.ways : k;
            llc.access((tag * sets + sets - 1) * cfg.lineBytes);
        }
        for (int i = 0; i < 4096; ++i)
            llc.access(rng.nextBelow(narrowLines) * cfg.lineBytes);
        llc.access(narrowLines * cfg.lineBytes);
        for (int i = 0; i < 4096; ++i)
            llc.access(rng.nextBelow(2 * narrowLines) * cfg.lineBytes);
        benchmark::DoNotOptimize(llc.misses());
    }
}
BENCHMARK(BM_CacheLlcNarrowThenWiden);

// The full L1 -> L2 -> LLC chain on a 1 GiB uniform line stream, the
// CPU gather's per-line cost before DRAM.
void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    CacheHierarchy hier(broadwellHierarchyConfig());
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(hier.access(rng.nextBelow(1 << 24) * 64));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

// What a sweep pays per system for its caches: build a Broadwell
// hierarchy, touch some lines, destroy it. Tag stores come from a pool
// (warmed before timing), so the build itself fills nothing and the
// teardown resets only the sets touched: none, those of 4096 uniform
// random lines, or one line in every LLC set, the worst case.
void
BM_CacheHierarchyLifecycle(benchmark::State &state, int lines,
                           bool everyLlcSet)
{
    const HierarchyConfig cfg = broadwellHierarchyConfig();
    const std::uint64_t llcSets = cfg.llc.sets();
    {
        CacheHierarchy warm(cfg);
    }
    Rng rng(42);
    for (auto _ : state) {
        CacheHierarchy hier(cfg);
        if (everyLlcSet) {
            for (std::uint64_t set = 0; set < llcSets; ++set)
                hier.access(set * cfg.llc.lineBytes);
        } else {
            for (int i = 0; i < lines; ++i)
                hier.access(rng.nextBelow(1 << 24) * cfg.llc.lineBytes);
        }
        benchmark::DoNotOptimize(hier.llc().misses());
    }
}
BENCHMARK_CAPTURE(BM_CacheHierarchyLifecycle, untouched, 0, false);
BENCHMARK_CAPTURE(BM_CacheHierarchyLifecycle, lines_4096, 4096, false);
BENCHMARK_CAPTURE(BM_CacheHierarchyLifecycle, every_llc_set, 0, true);

// What a CPU-MLP system pays to deploy its weights cache-warm: build a
// Broadwell hierarchy from a warm pool, warmRange Table I's smallest
// or largest MLP weight set into it, destroy it.
void
BM_CacheHierarchyWarmRange(benchmark::State &state, double weightKiB)
{
    const HierarchyConfig cfg = broadwellHierarchyConfig();
    const auto bytes = static_cast<std::uint64_t>(weightKiB * kKiB);
    {
        CacheHierarchy warm(cfg);
    }
    for (auto _ : state) {
        CacheHierarchy hier(cfg);
        hier.warmRange(Addr{1} << 30, bytes);
        benchmark::DoNotOptimize(hier.llc().misses());
    }
}
BENCHMARK_CAPTURE(BM_CacheHierarchyWarmRange, kib_57_4, 57.4);
BENCHMARK_CAPTURE(BM_CacheHierarchyWarmRange, kib_568_5, 568.5);

void
BM_DramRandomAccess(benchmark::State &state)
{
    DramModel dram;
    Rng rng(42);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.nextBelow(1 << 24) * 64, t));
        t += 5000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomAccess);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.9);
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 12)->Arg(1 << 20);

// The workload generator's sampler: O(1) alias-table draws at any
// population size, vs BM_ZipfSample's O(log n) CDF search (small n)
// or approximate analytical inversion (large n).
void
BM_ZipfAliasSample(benchmark::State &state)
{
    ZipfAliasSampler zipf(static_cast<std::uint64_t>(state.range(0)),
                          0.9);
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfAliasSample)->Arg(1 << 12)->Arg(1 << 20);

// Zipf batch synthesis end to end (dominated by the per-index draw;
// this is the loop the alias table accelerates).
void
BM_WorkloadZipfBatch(benchmark::State &state)
{
    const DlrmConfig cfg = dlrmPreset(1);
    WorkloadConfig wl;
    wl.batch = 16;
    wl.dist = IndexDistribution::Zipf;
    wl.zipfSkew = 0.9;
    WorkloadGenerator gen(cfg, wl);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
    state.SetItemsProcessed(state.iterations() * cfg.totalLookups(16));
}
BENCHMARK(BM_WorkloadZipfBatch);

// The hot-row tier's lookup loop: zipf:1.1 over 200k rows into a
// 32k-row (4 MiB of 128 B rows) tier, one 40-lookup batch per
// iteration. The tier is warmed past its fill first, so hits,
// evictions and (with ghost) admission filtering all run.
void
BM_CacheTierAnnotate(benchmark::State &state, CachePolicy policy,
                     bool ghost)
{
    constexpr std::uint32_t kRowBytes = 128;
    constexpr std::size_t kLookups = 40;
    constexpr std::size_t kBatches = 4096;
    CacheTierConfig cfg;
    cfg.capacityMB = 4.0;
    cfg.policy = policy;
    cfg.ghost = ghost;
    CacheTier tier(cfg, kRowBytes);

    const ZipfAliasSampler zipf(200000, 1.1);
    Rng rng(42);
    std::vector<InferenceBatch> batches(kBatches);
    for (InferenceBatch &b : batches) {
        b.batch = 1;
        b.lookupsPerTable = kLookups;
        b.indices.assign(1, std::vector<std::uint64_t>(kLookups));
        for (std::uint64_t &row : b.indices[0])
            row = zipf.sample(rng);
    }
    for (int pass = 0; pass < 4; ++pass)
        for (const InferenceBatch &b : batches)
            tier.annotate(b);

    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tier.annotate(batches[next]));
        next = (next + 1) % kBatches;
    }
    state.SetItemsProcessed(state.iterations() * kLookups);
}
BENCHMARK_CAPTURE(BM_CacheTierAnnotate, lru, CachePolicy::Lru, false);
BENCHMARK_CAPTURE(BM_CacheTierAnnotate, lfu, CachePolicy::Lfu, false);
BENCHMARK_CAPTURE(BM_CacheTierAnnotate, slru_ghost, CachePolicy::Slru,
                  true);

void
BM_MlpUnitGemmTiming(benchmark::State &state)
{
    CentaurConfig cfg;
    MlpUnit unit(cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.gemm(128, 512, 240, 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpUnitGemmTiming);

void
BM_ReferenceForward(benchmark::State &state)
{
    const DlrmConfig cfg = dlrmPreset(1);
    ReferenceModel model(cfg);
    WorkloadConfig wl;
    wl.batch = 4;
    WorkloadGenerator gen(cfg, wl);
    const InferenceBatch batch = gen.next();
    for (auto _ : state)
        benchmark::DoNotOptimize(model.forward(batch));
    state.SetItemsProcessed(state.iterations() * wl.batch);
}
BENCHMARK(BM_ReferenceForward);

// The whole golden forward pass (embedding reduction, both MLPs,
// interaction) at batch 8: rm-wide is MLP-bound, dlrm4 is bound by
// embedding-row synthesis, rm-small is small in both.
void
BM_ReferenceModelForward(benchmark::State &state, const char *name)
{
    const DlrmConfig cfg = parseModel(name);
    ReferenceModel model(cfg);
    WorkloadConfig wl;
    wl.batch = 8;
    WorkloadGenerator gen(cfg, wl);
    const InferenceBatch batch = gen.next();
    for (auto _ : state)
        benchmark::DoNotOptimize(model.forward(batch));
    state.SetItemsProcessed(state.iterations() * wl.batch);
}
BENCHMARK_CAPTURE(BM_ReferenceModelForward, rm_wide, "rm-wide");
BENCHMARK_CAPTURE(BM_ReferenceModelForward, dlrm4, "dlrm4");
BENCHMARK_CAPTURE(BM_ReferenceModelForward, rm_small, "rm-small");

// An MLP stack over its shared parameter block: rm-wide's bottom
// stack (13->1024->512->32) and a top stack of 1307->42->12->1, whose
// narrow layers run the kernel's padded panels. Every sample of a
// batch shares each pass over a weight panel, so the per-sample cost
// falls as the batch grows.
void
BM_MlpForwardBatch(benchmark::State &state,
                   std::vector<std::uint32_t> dims)
{
    const auto batch = static_cast<std::uint32_t>(state.range(0));
    const Mlp mlp(1, std::move(dims));
    const std::vector<float> in(
        static_cast<std::size_t>(batch) * mlp.inputDim(), 0.5f);
    for (auto _ : state)
        benchmark::DoNotOptimize(mlp.forwardBatch(in.data(), batch));
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK_CAPTURE(BM_MlpForwardBatch, rm_wide_bottom,
                  parseModel("rm-wide").bottomLayerDims())
    ->Arg(1)->Arg(4)->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_MlpForwardBatch, top_1307,
                  std::vector<std::uint32_t>{1307, 42, 12, 1})
    ->Arg(1)->Arg(4)->Arg(8);

// Four rm-wide GPU workers, construction only: the systems
// bench/perf's serve_gpu_dense builds per rep and times as setup_s.
void
BM_MakeWorkersGpu(benchmark::State &state)
{
    const DlrmConfig model = parseModel("rm-wide");
    ServingConfig cfg;
    cfg.workers = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(makeWorkers("gpu", model, cfg));
    state.SetItemsProcessed(state.iterations() * cfg.workers);
}
BENCHMARK(BM_MakeWorkersGpu);

} // namespace

BENCHMARK_MAIN();
