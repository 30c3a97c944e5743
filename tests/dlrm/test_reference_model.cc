/**
 * @file
 * Unit tests for the golden DLRM forward pass.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dlrm/model_registry.hh"
#include "dlrm/reference_model.hh"
#include "naive_reference.hh"

namespace centaur {
namespace {

DlrmConfig
tinyModel()
{
    DlrmConfig cfg;
    cfg.numTables = 3;
    cfg.lookupsPerTable = 4;
    cfg.rowsPerTable = 1000;
    return cfg;
}

InferenceBatch
makeBatch(const DlrmConfig &cfg, std::uint32_t batch,
          std::uint64_t seed = 5)
{
    WorkloadConfig wl;
    wl.batch = batch;
    wl.seed = seed;
    WorkloadGenerator gen(cfg, wl);
    return gen.next();
}

TEST(ReferenceModel, ReductionMatchesManualSum)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    const auto batch = makeBatch(cfg, 2);
    const auto reduced = model.reduceEmbeddings(batch);

    // Manually reduce table 1, sample 1.
    const auto &idx = batch.indices[1];
    for (std::uint32_t d = 0; d < cfg.embeddingDim; ++d) {
        float sum = 0.0f;
        for (std::uint32_t j = 0; j < cfg.lookupsPerTable; ++j)
            sum += model.table(1).element(
                idx[1 * cfg.lookupsPerTable + j], d);
        EXPECT_FLOAT_EQ(reduced[1][cfg.embeddingDim + d], sum);
    }
}

TEST(ReferenceModel, InteractionMatchesManualDots)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    std::vector<float> bottom(cfg.embeddingDim);
    std::vector<std::vector<float>> reduced(
        cfg.numTables, std::vector<float>(cfg.embeddingDim));
    for (std::uint32_t d = 0; d < cfg.embeddingDim; ++d) {
        bottom[d] = 0.01f * static_cast<float>(d);
        for (std::uint32_t t = 0; t < cfg.numTables; ++t)
            reduced[t][d] =
                0.005f * static_cast<float>(t + 1) *
                static_cast<float>(d % 5);
    }
    std::vector<const float *> ptrs;
    for (const auto &r : reduced)
        ptrs.push_back(r.data());
    const auto feat = model.interactSample(bottom.data(), ptrs);
    ASSERT_EQ(feat.size(), cfg.interactionDim());

    // Bottom output passes through first.
    for (std::uint32_t d = 0; d < cfg.embeddingDim; ++d)
        EXPECT_FLOAT_EQ(feat[d], bottom[d]);

    // First dot: reduced[0] . bottom.
    float dot = 0.0f;
    for (std::uint32_t d = 0; d < cfg.embeddingDim; ++d)
        dot += reduced[0][d] * bottom[d];
    EXPECT_FLOAT_EQ(feat[cfg.embeddingDim], dot);
}

TEST(ReferenceModel, ForwardShapes)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    const auto batch = makeBatch(cfg, 8);
    const auto fwd = model.forward(batch);
    EXPECT_EQ(fwd.probabilities.size(), 8u);
    EXPECT_EQ(fwd.logits.size(), 8u);
    EXPECT_EQ(fwd.bottomOut.size(), 8u * cfg.embeddingDim);
    EXPECT_EQ(fwd.topIn.size(), 8u * cfg.interactionDim());
    EXPECT_EQ(fwd.reduced.size(), cfg.numTables);
}

TEST(ReferenceModel, ProbabilitiesAreValid)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    const auto fwd = model.forward(makeBatch(cfg, 32));
    for (float p : fwd.probabilities) {
        EXPECT_GT(p, 0.0f);
        EXPECT_LT(p, 1.0f);
        EXPECT_TRUE(std::isfinite(p));
    }
}

TEST(ReferenceModel, ProbabilitiesMatchSigmoidOfLogits)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    const auto fwd = model.forward(makeBatch(cfg, 4));
    for (std::size_t i = 0; i < fwd.logits.size(); ++i)
        EXPECT_FLOAT_EQ(fwd.probabilities[i],
                        referenceSigmoid(fwd.logits[i]));
}

TEST(ReferenceModel, DeterministicAcrossInstances)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel a(cfg);
    ReferenceModel b(cfg);
    const auto batch = makeBatch(cfg, 4);
    EXPECT_EQ(a.forward(batch).probabilities,
              b.forward(batch).probabilities);
}

TEST(ReferenceModel, BatchIndependencePerSample)
{
    // Sample 0's result must not depend on other samples in the
    // batch: rebuild a batch-of-1 from sample 0's inputs.
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    const auto big = makeBatch(cfg, 4);

    InferenceBatch one;
    one.batch = 1;
    one.lookupsPerTable = big.lookupsPerTable;
    one.indices.resize(cfg.numTables);
    for (std::uint32_t t = 0; t < cfg.numTables; ++t)
        one.indices[t].assign(
            big.indices[t].begin(),
            big.indices[t].begin() + big.lookupsPerTable);
    one.dense.assign(big.dense.begin(),
                     big.dense.begin() + cfg.denseDim);

    EXPECT_FLOAT_EQ(model.forward(one).probabilities[0],
                    model.forward(big).probabilities[0]);
}

TEST(ReferenceModel, DifferentInputsChangeOutput)
{
    const DlrmConfig cfg = tinyModel();
    ReferenceModel model(cfg);
    const auto p1 =
        model.forward(makeBatch(cfg, 1, 1)).probabilities[0];
    const auto p2 =
        model.forward(makeBatch(cfg, 1, 2)).probabilities[0];
    EXPECT_NE(p1, p2);
}

TEST(ReferenceModel, PresetModelsConstructAndRun)
{
    // The big presets must construct without allocating table
    // storage (virtual tables) and run a batch-1 forward quickly.
    for (int p : {1, 6}) {
        const DlrmConfig cfg = dlrmPreset(p);
        ReferenceModel model(cfg);
        const auto fwd = model.forward(makeBatch(cfg, 1));
        EXPECT_EQ(fwd.probabilities.size(), 1u);
    }
}

TEST(ReferenceModelBitExact, ForwardMatchesNaiveLoops)
{
    for (const char *name : {"rm-wide", "dlrm4", "dlrm6", "rm-small"}) {
        const DlrmConfig cfg = parseModel(name);
        const ReferenceModel model(cfg);
        for (std::uint32_t batch : {1u, 3u, 8u, 17u}) {
            SCOPED_TRACE(testing::Message()
                         << name << " batch=" << batch);
            const auto in = makeBatch(cfg, batch, 11 + batch);
            const auto got = model.forward(in);
            const auto expect = naive::dlrmForward(model, in);
            ASSERT_EQ(got.reduced.size(), expect.reduced.size());
            for (std::size_t t = 0; t < got.reduced.size(); ++t)
                EXPECT_TRUE(
                    naive::bitEqual(got.reduced[t], expect.reduced[t]));
            EXPECT_TRUE(naive::bitEqual(got.bottomOut, expect.bottomOut));
            EXPECT_TRUE(naive::bitEqual(got.topIn, expect.topIn));
            EXPECT_TRUE(naive::bitEqual(got.logits, expect.logits));
            EXPECT_TRUE(naive::bitEqual(got.probabilities,
                                        expect.probabilities));

            // The public per-sample wrapper writes the same features.
            const std::uint32_t last = batch - 1;
            std::vector<const float *> reduced;
            for (const auto &r : got.reduced)
                reduced.push_back(r.data() + last * cfg.embeddingDim);
            const auto feat = model.interactSample(
                got.bottomOut.data() + last * cfg.embeddingDim, reduced);
            EXPECT_TRUE(naive::bitEqual(
                feat, std::vector<float>(
                          got.topIn.end() - cfg.interactionDim(),
                          got.topIn.end())));
        }
    }
}

TEST(ReferenceModelDeath, BottomMlpMustEndAtEmbeddingDim)
{
    DlrmConfig cfg = tinyModel();
    cfg.bottomMlp = {64, 16}; // != embeddingDim
    EXPECT_DEATH(ReferenceModel{cfg}, "embeddingDim");
}

} // namespace
} // namespace centaur
