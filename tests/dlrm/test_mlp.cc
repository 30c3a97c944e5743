/**
 * @file
 * Unit tests for the functional MLP.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "dlrm/mlp.hh"
#include "dlrm/model_registry.hh"
#include "naive_reference.hh"

namespace centaur {
namespace {

TEST(Mlp, DimsAndLayers)
{
    Mlp mlp(1, {13, 128, 64, 32});
    EXPECT_EQ(mlp.inputDim(), 13u);
    EXPECT_EQ(mlp.outputDim(), 32u);
    EXPECT_EQ(mlp.layers(), 3u);
}

TEST(Mlp, ParamCountMatchesFormula)
{
    Mlp mlp(1, {13, 128, 64, 32});
    // (13*128+128) + (128*64+64) + (64*32+32)
    EXPECT_EQ(mlp.paramCount(), 1792u + 8256u + 2080u);
}

TEST(Mlp, MacsPerSample)
{
    Mlp mlp(1, {13, 128});
    EXPECT_EQ(mlp.macsPerSample(), 13u * 128u);
}

TEST(Mlp, WeightsAreDeterministic)
{
    Mlp a(7, {8, 4});
    Mlp b(7, {8, 4});
    EXPECT_EQ(a.weight(0, 2, 3), b.weight(0, 2, 3));
    EXPECT_EQ(a.bias(0, 1), b.bias(0, 1));
}

TEST(Mlp, DifferentIdsDifferentWeights)
{
    Mlp a(1, {8, 4});
    Mlp b(2, {8, 4});
    int same = 0;
    for (std::uint32_t o = 0; o < 4; ++o)
        for (std::uint32_t i = 0; i < 8; ++i)
            same += (a.weight(0, o, i) == b.weight(0, o, i));
    EXPECT_LT(same, 3);
}

TEST(Mlp, ForwardMatchesManualComputation)
{
    Mlp mlp(3, {2, 2}, Activation::Relu, Activation::None);
    const float in[2] = {0.5f, -0.25f};
    const auto out = mlp.forward(in);
    ASSERT_EQ(out.size(), 2u);
    for (std::uint32_t o = 0; o < 2; ++o) {
        const float expect = mlp.bias(0, o) +
                             mlp.weight(0, o, 0) * in[0] +
                             mlp.weight(0, o, 1) * in[1];
        EXPECT_FLOAT_EQ(out[o], expect);
    }
}

TEST(Mlp, ReluClampsNegatives)
{
    Mlp mlp(3, {4, 16, 8}, Activation::Relu, Activation::Relu);
    const float in[4] = {1.0f, -1.0f, 0.5f, -0.5f};
    for (float v : mlp.forward(in))
        EXPECT_GE(v, 0.0f);
}

TEST(Mlp, FinalActivationNoneAllowsNegatives)
{
    Mlp mlp(5, {16, 8, 1}, Activation::Relu, Activation::None);
    std::vector<float> in(16);
    bool saw_negative = false;
    for (int trial = 0; trial < 64 && !saw_negative; ++trial) {
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = ((trial * 16 + static_cast<int>(i)) % 7) - 3.0f;
        saw_negative = mlp.forward(in.data())[0] < 0.0f;
    }
    EXPECT_TRUE(saw_negative);
}

TEST(Mlp, BatchForwardEqualsPerSampleForward)
{
    Mlp mlp(9, {4, 8, 2});
    std::vector<float> batch_in;
    for (int b = 0; b < 3; ++b)
        for (int i = 0; i < 4; ++i)
            batch_in.push_back(0.1f * static_cast<float>(b * 4 + i));
    const auto batch_out = mlp.forwardBatch(batch_in.data(), 3);
    for (int b = 0; b < 3; ++b) {
        const auto single = mlp.forward(batch_in.data() + b * 4);
        for (int o = 0; o < 2; ++o)
            EXPECT_EQ(batch_out[static_cast<std::size_t>(b * 2 + o)],
                      single[static_cast<std::size_t>(o)]);
    }
}

/** Deterministic inputs in [-1, 1), with exact zeros and negatives. */
std::vector<float>
testInputs(std::size_t n, std::uint64_t seed)
{
    std::vector<float> in(n);
    for (std::size_t k = 0; k < n; ++k)
        in[k] = k % 5 == 0 ? 0.0f
                           : paramgen::hashedFloat(77, seed, k, 0, 1.0f);
    return in;
}

TEST(MlpBitExact, ForwardBatchMatchesNaiveLoopOnPresetShapes)
{
    for (const char *name : {"rm-wide", "dlrm4", "dlrm6"}) {
        const DlrmConfig cfg = parseModel(name);
        for (const auto &dims : {cfg.bottomLayerDims(), cfg.topLayerDims()})
            for (Activation final_act : {Activation::Relu, Activation::None})
                for (std::uint32_t batch : {1u, 3u, 8u, 17u}) {
                    SCOPED_TRACE(testing::Message()
                                 << name << " in=" << dims.front()
                                 << " batch=" << batch << " final="
                                 << (final_act == Activation::Relu
                                         ? "relu" : "none"));
                    const Mlp mlp(4, dims, Activation::Relu, final_act);
                    const auto in =
                        testInputs(batch * dims.front(), batch);
                    const auto expect = naive::mlpForward(
                        mlp, Activation::Relu, final_act, in.data(), batch);
                    EXPECT_TRUE(naive::bitEqual(
                        mlp.forwardBatch(in.data(), batch), expect));
                    const std::vector<float> last(
                        expect.end() - mlp.outputDim(), expect.end());
                    EXPECT_TRUE(naive::bitEqual(
                        mlp.forward(in.data() + (batch - 1) * dims.front()),
                        last));
                }
    }
}

TEST(MlpBitExact, ForwardBatchCoversKernelTailsAndPaddingLanes)
{
    // Output widths off the 4-wide block, a 1-wide input and every
    // batch remainder of the 4-sample groups.
    const std::vector<std::vector<std::uint32_t>> shapes = {
        {1, 1},    {1, 2},    {1, 3},       {1, 5},      {1, 7},
        {5, 1},    {6, 2},    {9, 3},       {4, 5},      {3, 7},
        {1, 8, 5}, {7, 3, 1}, {2, 5, 7, 2}, {13, 6, 4, 3}};
    for (const auto &dims : shapes)
        for (Activation final_act : {Activation::Relu, Activation::None})
            for (std::uint32_t batch = 1; batch <= 9; ++batch) {
                SCOPED_TRACE(testing::Message()
                             << "in=" << dims.front() << " layers="
                             << dims.size() - 1 << " out=" << dims.back()
                             << " batch=" << batch);
                const Mlp mlp(6, dims, Activation::Relu, final_act);
                const auto in = testInputs(batch * dims.front(), batch + 40);
                EXPECT_TRUE(naive::bitEqual(
                    mlp.forwardBatch(in.data(), batch),
                    naive::mlpForward(mlp, Activation::Relu, final_act,
                                      in.data(), batch)));
            }
}

/** weight() and bias() laid out as the parameter block promises. */
std::vector<float>
expectedBlock(const Mlp &mlp)
{
    std::vector<float> block;
    for (std::size_t l = 0; l < mlp.layers(); ++l) {
        for (std::uint32_t o = 0; o < mlp.dims()[l + 1]; ++o)
            for (std::uint32_t i = 0; i < mlp.dims()[l]; ++i)
                block.push_back(mlp.weight(l, o, i));
        for (std::uint32_t o = 0; o < mlp.dims()[l + 1]; ++o)
            block.push_back(mlp.bias(l, o));
    }
    return block;
}

TEST(MlpParams, BlockIsWeightAndBiasOfEveryRegisteredModel)
{
    for (const ModelInfo &info : modelRegistry()) {
        // ReferenceModel's ids: 1 for the bottom stack, 2 for the top.
        const Mlp bottom(1, info.config.bottomLayerDims());
        const Mlp top(2, info.config.topLayerDims());
        for (const Mlp *mlp : {&bottom, &top}) {
            SCOPED_TRACE(testing::Message()
                         << info.name << " in=" << mlp->inputDim());
            const auto expect = expectedBlock(*mlp);
            ASSERT_EQ(expect.size(), mlp->paramCount());
            EXPECT_EQ(std::memcmp(mlp->params(), expect.data(),
                                  expect.size() * sizeof(float)),
                      0);
        }
    }
}

TEST(MlpParams, SameIdAndDimsShareOneBlock)
{
    const Mlp a(21, {8, 4, 3});
    const Mlp same(21, {8, 4, 3}, Activation::None, Activation::None);
    const Mlp copy = a;
    const Mlp other_id(22, {8, 4, 3});
    const Mlp other_dims(21, {8, 4, 2});
    EXPECT_EQ(a.params(), same.params());
    EXPECT_EQ(a.params(), copy.params());
    EXPECT_NE(a.params(), other_id.params());
    EXPECT_NE(a.params(), other_dims.params());
}

TEST(MlpParams, ConcurrentBuildsOfAFreshShapeAgree)
{
    // Every thread builds the same never-seen shape at once, so the
    // registry's first insert races with the others' lookups.
    constexpr int kThreads = 8;
    const std::vector<std::uint32_t> dims = {37, 29, 11};
    const std::uint32_t batch = 5;
    const auto in = testInputs(batch * dims.front(), 99);
    std::vector<std::vector<float>> outs(kThreads);
    std::vector<const float *> blocks(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            const Mlp mlp(4242, dims);
            blocks[t] = mlp.params();
            outs[t] = mlp.forwardBatch(in.data(), batch);
        });
    }
    for (std::thread &th : threads)
        th.join();
    const Mlp mlp(4242, dims);
    const auto expect = naive::mlpForward(mlp, Activation::Relu,
                                          Activation::Relu, in.data(), batch);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(naive::bitEqual(outs[t], expect)) << "thread " << t;
        EXPECT_EQ(blocks[t], mlp.params()) << "thread " << t;
    }
}

TEST(Mlp, ActivationsStayBounded)
{
    // Xavier-ish scaling should keep deep stacks from exploding.
    Mlp mlp(11, {32, 256, 256, 256, 32});
    std::vector<float> in(32, 0.7f);
    for (float v : mlp.forward(in.data())) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_LT(std::fabs(v), 100.0f);
    }
}

TEST(Mlp, ReferenceSigmoidProperties)
{
    EXPECT_FLOAT_EQ(referenceSigmoid(0.0f), 0.5f);
    EXPECT_GT(referenceSigmoid(5.0f), 0.99f);
    EXPECT_LT(referenceSigmoid(-5.0f), 0.01f);
    EXPECT_NEAR(referenceSigmoid(1.0f) + referenceSigmoid(-1.0f), 1.0f,
                1e-6f);
}

TEST(MlpDeath, RejectsDegenerateShapes)
{
    EXPECT_DEATH(Mlp(1, {5}), "at least");
    EXPECT_DEATH(Mlp(1, {5, 0, 3}), "nonzero");
}

} // namespace
} // namespace centaur
