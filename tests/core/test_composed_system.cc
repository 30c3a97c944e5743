/**
 * @file
 * Integration tests for SystemBuilder/ComposedSystem: the three
 * canned paper presets must reproduce the monolithic reference
 * classes exactly (latency, every phase, energy, cache statistics,
 * probabilities) at every Table I preset, the makeSystem shim must
 * be byte-compatible, and the new backend pairings must behave
 * according to the paper's qualitative orderings.
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <memory>

// The monolithic reference classes are reached through the
// consolidated legacy surface.
#include "core/backend.hh"
#include "core/compat.hh"
#include "core/system.hh"
#include "core/system_builder.hh"
#include "dlrm/model_registry.hh"

namespace centaur {
namespace {

InferenceBatch
makeBatch(const DlrmConfig &cfg, std::uint32_t batch,
          std::uint64_t seed = 9)
{
    WorkloadConfig wl;
    wl.batch = batch;
    wl.seed = seed;
    WorkloadGenerator gen(cfg, wl);
    return gen.next();
}

/** Every metric of @p a equals @p b (exact, not approximate). */
void
expectIdenticalResults(const InferenceResult &a,
                       const InferenceResult &b,
                       const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.latency(), b.latency());
    for (std::size_t p = 0; p < kNumPhases; ++p)
        EXPECT_EQ(a.phase[p], b.phase[p])
            << phaseName(static_cast<Phase>(p));
    EXPECT_DOUBLE_EQ(a.effectiveEmbGBps, b.effectiveEmbGBps);
    EXPECT_EQ(a.emb.instructions, b.emb.instructions);
    EXPECT_EQ(a.emb.llcAccesses, b.emb.llcAccesses);
    EXPECT_EQ(a.emb.llcMisses, b.emb.llcMisses);
    EXPECT_EQ(a.mlp.instructions, b.mlp.instructions);
    EXPECT_EQ(a.mlp.llcAccesses, b.mlp.llcAccesses);
    EXPECT_EQ(a.mlp.llcMisses, b.mlp.llcMisses);
    EXPECT_DOUBLE_EQ(a.powerWatts, b.powerWatts);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    for (std::size_t i = 0; i < a.probabilities.size(); ++i)
        EXPECT_FLOAT_EQ(a.probabilities[i], b.probabilities[i]);
}

/**
 * Run the monolithic reference and the composed preset through the
 * same two-inference sequence (state advances between inferences;
 * both runs must stay in lockstep).
 */
void
expectPresetEquivalence(System &reference, const std::string &spec,
                        const DlrmConfig &cfg, std::uint32_t batch)
{
    auto composed = SystemBuilder().spec(spec).model(cfg).build();
    EXPECT_EQ(composed->spec(), spec);
    for (std::uint64_t seed : {7ull, 8ull}) {
        const InferenceBatch b = makeBatch(cfg, batch, seed);
        const InferenceResult rr = reference.infer(b);
        const InferenceResult rc = composed->infer(b);
        expectIdenticalResults(
            rr, rc,
            spec + " preset " + cfg.name + " batch " +
                std::to_string(batch) + " seed " +
                std::to_string(seed));
        EXPECT_EQ(rc.spec, spec);
    }
}

TEST(ComposedSystem, CpuPresetReproducesCpuOnlyAtEveryPreset)
{
    for (int preset = 1; preset <= 6; ++preset) {
        const DlrmConfig cfg = dlrmPreset(preset);
        CpuOnlySystem reference(cfg);
        expectPresetEquivalence(reference, "cpu", cfg, 4);
    }
}

TEST(ComposedSystem, CpuGpuPresetReproducesCpuGpuAtEveryPreset)
{
    for (int preset = 1; preset <= 6; ++preset) {
        const DlrmConfig cfg = dlrmPreset(preset);
        CpuGpuSystem reference(cfg);
        expectPresetEquivalence(reference, "cpu+gpu", cfg, 4);
    }
}

TEST(ComposedSystem, CpuFpgaPresetReproducesCentaurAtEveryPreset)
{
    for (int preset = 1; preset <= 6; ++preset) {
        const DlrmConfig cfg = dlrmPreset(preset);
        CentaurSystem reference(cfg);
        expectPresetEquivalence(reference, "cpu+fpga", cfg, 4);
    }
}

TEST(ComposedSystem, PresetEquivalenceHoldsAtLargeBatchToo)
{
    const DlrmConfig cfg = dlrmPreset(1);
    CpuOnlySystem cpu(cfg);
    expectPresetEquivalence(cpu, "cpu", cfg, 64);
    CpuGpuSystem gpu(cfg);
    expectPresetEquivalence(gpu, "cpu+gpu", cfg, 64);
    CentaurSystem cen(cfg);
    expectPresetEquivalence(cen, "cpu+fpga", cfg, 64);
}

TEST(ComposedSystem, MakeSystemConvenienceIsTheBuilder)
{
    const DlrmConfig cfg = dlrmPreset(1);
    for (DesignPoint dp : {DesignPoint::CpuOnly, DesignPoint::CpuGpu,
                           DesignPoint::Centaur}) {
        auto via_factory = makeSystem(specForDesign(dp), cfg);
        auto via_builder = SystemBuilder()
                               .spec(specForDesign(dp))
                               .model(cfg)
                               .build();
        EXPECT_EQ(via_factory->design(), dp);
        EXPECT_EQ(via_factory->spec(), via_builder->spec());
        const InferenceBatch b = makeBatch(cfg, 8);
        expectIdenticalResults(via_factory->infer(b),
                               via_builder->infer(b),
                               via_factory->spec());
    }
}

TEST(ComposedSystem, EveryRegisteredSpecRunsAndAccountsPhases)
{
    const DlrmConfig cfg = dlrmPreset(1);
    for (const std::string &spec : registeredSpecs()) {
        auto sys = makeSystem(spec, cfg);
        const InferenceBatch b = makeBatch(cfg, 8);
        const InferenceResult r = sys->infer(b);
        SCOPED_TRACE(spec);
        EXPECT_EQ(r.spec, spec);
        EXPECT_GT(r.latency(), 0u);
        Tick sum = 0;
        for (std::size_t p = 0; p < kNumPhases; ++p)
            sum += r.phase[p];
        EXPECT_EQ(sum, r.latency());
        EXPECT_GT(r.powerWatts, 0.0);
        EXPECT_NEAR(r.energyJoules,
                    r.powerWatts * secFromTicks(r.latency()), 1e-12);
        EXPECT_GT(r.effectiveEmbGBps, 0.0);

        // Functional outputs track the reference model: exact for
        // CPU/GPU sigmoid paths, LUT-accurate on FPGA MLP stages.
        auto reference = makeSystem("cpu", cfg);
        const InferenceResult golden = reference->infer(b);
        ASSERT_EQ(r.probabilities.size(), golden.probabilities.size());
        for (std::size_t i = 0; i < r.probabilities.size(); ++i)
            EXPECT_NEAR(r.probabilities[i], golden.probabilities[i],
                        2e-3f);
    }
}

TEST(ComposedSystem, GpuStageSpecsKeepTheirFrozenTimings)
{
    // Systems that gather on the GPU build no host cache or DRAM
    // model. Freeze each GPU-stage spec's start, end and phase array
    // (one system, batch 1 then batch 8) against the values the
    // simulator gave when every system still built both models.
    struct Frozen
    {
        const char *model;
        const char *spec;
        std::uint32_t batch;
        Tick start;
        Tick end;
        std::array<Tick, kNumPhases> phase;
    };
    const Frozen frozen[] = {
        {"dlrm1", "cpu+gpu", 1, 0u, 130175964u, {0u, 25599760u, 0u, 60479798u, 44096406u}},
        {"dlrm1", "cpu+gpu", 8, 130175964u, 277683009u, {0u, 38897400u, 0u, 63838399u, 44771246u}},
        {"dlrm1", "gpu", 1, 0u, 130822872u, {12033334u, 14266667u, 12004334u, 60479798u, 32038739u}},
        {"dlrm1", "gpu", 8, 130822872u, 295405851u, {12266667u, 44133334u, 12034667u, 63838399u, 32309912u}},
        {"dlrm1", "gpu+fpga", 1, 0u, 50892336u, {12033334u, 14266667u, 12004334u, 2465000u, 10123001u}},
        {"dlrm1", "gpu+fpga", 8, 50892336u, 136156005u, {12266667u, 44133334u, 12034667u, 6265000u, 10564001u}},
        {"rm-wide", "cpu+gpu", 1, 0u, 152314684u, {0u, 39610450u, 0u, 68527828u, 44176406u}},
        {"rm-wide", "cpu+gpu", 8, 152314684u, 339039389u, {0u, 60356360u, 0u, 80957099u, 45411246u}},
        {"rm-wide", "gpu", 1, 0u, 140122902u, {12042667u, 15461334u, 12004334u, 68527828u, 32086739u}},
        {"rm-wide", "gpu", 8, 140122902u, 331840581u, {12341334u, 53690667u, 12034667u, 80957099u, 32693912u}},
        {"rm-wide", "gpu+fpga", 1, 0u, 59353336u, {12042667u, 15461334u, 12004334u, 9690000u, 10155001u}},
        {"rm-wide", "gpu+fpga", 8, 59353336u, 195160005u, {12341334u, 53690667u, 12034667u, 46920000u, 10820001u}},
    };
    std::size_t next = 0;
    for (const char *model : {"dlrm1", "rm-wide"}) {
        const DlrmConfig cfg = parseModel(model);
        for (const std::string &spec : registeredSpecs()) {
            const SystemSpec s = parseSpec(spec);
            if (s.emb != EmbBackendKind::GpuGather &&
                s.mlp != MlpBackendKind::Gpu)
                continue;
            auto sys = makeSystem(spec, cfg);
            for (std::uint32_t batch : {1u, 8u}) {
                ASSERT_LT(next, std::size(frozen));
                const Frozen &f = frozen[next++];
                SCOPED_TRACE(testing::Message() << model << " " << spec
                                                << " batch " << batch);
                ASSERT_EQ(std::string(f.model), model);
                ASSERT_EQ(f.spec, spec);
                ASSERT_EQ(f.batch, batch);
                const InferenceResult r = sys->infer(makeBatch(cfg, batch));
                EXPECT_EQ(r.start, f.start);
                EXPECT_EQ(r.end, f.end);
                EXPECT_EQ(r.phase, f.phase);
            }
        }
    }
    EXPECT_EQ(next, std::size(frozen));
}

TEST(ComposedSystem, InternalClockAdvancesAcrossInferences)
{
    const DlrmConfig cfg = dlrmPreset(1);
    for (const char *spec : {"gpu", "gpu+fpga", "fpga+fpga"}) {
        auto sys = makeSystem(spec, cfg);
        const auto r1 = sys->infer(makeBatch(cfg, 2, 1));
        const auto r2 = sys->infer(makeBatch(cfg, 2, 2));
        EXPECT_GE(r2.start, r1.end) << spec;
    }
}

TEST(ComposedSystem, FpgaMlpStagesBeatCpuMlpOnceBatched)
{
    // The spec_matrix CI invariant, at test scale: any FPGA-resident
    // MLP stage outruns the CPU MLP stage at batch >= 64, wherever
    // its embeddings come from.
    const DlrmConfig cfg = dlrmPreset(1);
    const InferenceBatch b = makeBatch(cfg, 64);
    const Tick cpu_mlp =
        makeSystem("cpu", cfg)->infer(b).phaseTicks(Phase::Mlp);
    for (const char *spec :
         {"cpu+fpga", "gpu+fpga", "fpga+fpga"}) {
        const Tick mlp =
            makeSystem(spec, cfg)->infer(b).phaseTicks(Phase::Mlp);
        EXPECT_LT(mlp, cpu_mlp) << spec;
    }
}

TEST(ComposedSystem, PackageIntegrationBeatsTheDiscretePairings)
{
    // The paper's architectural argument, now measurable: the
    // in-package pairing overlaps EMB with the bottom MLP and pays
    // no PCIe hops, so it must beat both discrete fpga pairings
    // end to end.
    const DlrmConfig cfg = dlrmPreset(1);
    const InferenceBatch b = makeBatch(cfg, 16);
    const Tick integrated =
        makeSystem("cpu+fpga", cfg)->infer(b).latency();
    for (const char *spec : {"gpu+fpga", "fpga+fpga"}) {
        const Tick discrete =
            makeSystem(spec, cfg)->infer(b).latency();
        EXPECT_LT(integrated, discrete) << spec;
    }
}

TEST(ComposedSystem, PcieGatherCapsTheGpuSparseStage)
{
    // A PCIe-fed gather cannot approach the coherent EB-Streamer's
    // effective bandwidth - the reason the paper pairs the FPGA
    // with the CPU package in the first place.
    const DlrmConfig cfg = dlrmPreset(4);
    const InferenceBatch b = makeBatch(cfg, 64);
    const double gpu_gbps =
        makeSystem("gpu", cfg)->infer(b).effectiveEmbGBps;
    const double eb_gbps =
        makeSystem("cpu+fpga", cfg)->infer(b).effectiveEmbGBps;
    EXPECT_GT(gpu_gbps, 0.0);
    EXPECT_GT(eb_gbps, 2.0 * gpu_gbps);
}

TEST(ComposedSystemDeath, PackageFpgaMlpNeedsTheEbStreamer)
{
    // A hand-assembled spec that puts a Package-placed FPGA MLP
    // behind a CPU gather has no streamer to write back through.
    SystemSpec bad;
    bad.emb = EmbBackendKind::CpuGather;
    bad.mlp = MlpBackendKind::Fpga;
    bad.placement = MlpPlacement::Package;
    EXPECT_DEATH((void)SystemBuilder()
                     .spec(bad)
                     .model(dlrmPreset(1))
                     .build(),
                 "EB-Streamer");
}

} // namespace
} // namespace centaur
