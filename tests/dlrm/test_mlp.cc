/**
 * @file
 * Unit tests for the functional MLP.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dlrm/mlp.hh"
#include "dlrm/mlp_kernel.hh"
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

/**
 * Runs each bit-exactness test through every layer kernel: "x4" (4-wide
 * vectors, every host) and "avx2" (8-wide, skipped where the CPU lacks
 * AVX2). Mlp::forwardBatch() itself runs whichever hostKernel() picks.
 */
class MlpBitExact : public testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        if (std::string(GetParam()) == "x4") {
            _kernel = &mlp_kernel::layer4;
            return;
        }
#if defined(__x86_64__)
        if (mlp_kernel::hostHasAvx2()) {
            _kernel = &mlp_kernel::layer8;
            return;
        }
#endif
        GTEST_SKIP() << "this CPU has no AVX2";
    }

    std::vector<float>
    forwardBatch(const Mlp &mlp, const float *in, std::uint32_t batch) const
    {
        return mlp_kernel::forwardBatch(mlp, _kernel, in, batch);
    }

    mlp_kernel::LayerKernel _kernel = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Kernels, MlpBitExact, testing::Values("x4", "avx2"),
                         [](const testing::TestParamInfo<const char *> &p) {
                             return std::string(p.param);
                         });

TEST_P(MlpBitExact, ForwardBatchMatchesNaiveLoopOnPresetShapes)
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
                        forwardBatch(mlp, in.data(), batch), expect));
                    const std::vector<float> last(
                        expect.end() - mlp.outputDim(), expect.end());
                    EXPECT_TRUE(naive::bitEqual(
                        forwardBatch(mlp,
                                     in.data() + (batch - 1) * dims.front(),
                                     1),
                        last));
                }
    }
}

TEST_P(MlpBitExact, ForwardBatchCoversKernelTailsAndPaddingLanes)
{
    // Output widths on both sides of one, two and three 8-output
    // panels (the 8-wide kernel takes panels in pairs, so 17 leaves
    // one over), a 1-wide input, padded hidden layers, and every
    // remainder of the 4-sample groups.
    const std::vector<std::vector<std::uint32_t>> shapes = {
        {1, 1},      {1, 2},      {1, 3},       {1, 5},        {1, 7},
        {5, 1},      {6, 2},      {9, 3},       {4, 5},        {3, 7},
        {2, 8},      {1, 9},      {3, 10},      {7, 11},       {2, 12},
        {5, 13},     {1, 14},     {4, 15},      {6, 16},       {3, 17},
        {1, 8, 5},   {7, 3, 1},   {2, 5, 7, 2}, {13, 6, 4, 3}, {9, 17, 9, 1},
        {5, 16, 17}, {17, 11, 16}};
    std::vector<std::uint32_t> batches;
    for (std::uint32_t b = 1; b <= 9; ++b)
        batches.push_back(b);
    batches.push_back(17);
    batches.push_back(64);
    for (const auto &dims : shapes)
        for (Activation final_act : {Activation::Relu, Activation::None})
            for (std::uint32_t batch : batches) {
                SCOPED_TRACE(testing::Message()
                             << "in=" << dims.front() << " layers="
                             << dims.size() - 1 << " out=" << dims.back()
                             << " batch=" << batch);
                const Mlp mlp(6, dims, Activation::Relu, final_act);
                const auto in = testInputs(batch * dims.front(), batch + 40);
                EXPECT_TRUE(naive::bitEqual(
                    forwardBatch(mlp, in.data(), batch),
                    naive::mlpForward(mlp, Activation::Relu, final_act,
                                      in.data(), batch)));
            }
}

TEST(MlpKernel, HostKernelFollowsCpuDetection)
{
#if defined(__x86_64__)
    EXPECT_EQ(mlp_kernel::hostKernel(), mlp_kernel::hostHasAvx2()
                                            ? &mlp_kernel::layer8
                                            : &mlp_kernel::layer4);
#else
    EXPECT_EQ(mlp_kernel::hostKernel(), &mlp_kernel::layer4);
#endif
}

/**
 * weight() and bias() where mlp_kernel.hh documents them: per layer,
 * w[o][i] at lane o % 8 of row i of panel o / 8, then the biases;
 * every padding lane is zero.
 */
std::vector<float>
expectedBlock(const Mlp &mlp)
{
    static_assert(mlp_kernel::kPanel == 8, "the documented panel width");
    std::vector<float> block(mlp_kernel::blockFloats(mlp.dims()), 0.0f);
    std::size_t base = 0;
    for (std::size_t l = 0; l < mlp.layers(); ++l) {
        const std::size_t in = mlp.dims()[l];
        const std::uint32_t out = mlp.dims()[l + 1];
        const std::size_t padded = (out + 7) / 8 * 8;
        for (std::uint32_t o = 0; o < out; ++o)
            for (std::uint32_t i = 0; i < in; ++i)
                block[base + (o / 8 * in + i) * 8 + o % 8] =
                    mlp.weight(l, o, i);
        for (std::uint32_t o = 0; o < out; ++o)
            block[base + padded * in + o] = mlp.bias(l, o);
        base += padded * (in + 1);
    }
    EXPECT_EQ(base, block.size());
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
