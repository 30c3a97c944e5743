/**
 * @file
 * Unit tests for virtual embedding tables and the memory layout.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dlrm/embedding_table.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

TEST(ParamGen, HashIsDeterministic)
{
    EXPECT_EQ(paramgen::hash(42), paramgen::hash(42));
    EXPECT_NE(paramgen::hash(42), paramgen::hash(43));
}

TEST(ParamGen, HashedFloatWithinScale)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const float v = paramgen::hashedFloat(1, i, i * 3, i * 7, 0.1f);
        EXPECT_LE(std::fabs(v), 0.1f);
    }
}

TEST(ParamGen, HashedFloatMeanIsNearZero)
{
    double sum = 0.0;
    for (std::uint64_t i = 0; i < 20000; ++i)
        sum += paramgen::hashedFloat(2, i, 0, 0, 1.0f);
    EXPECT_NEAR(sum / 20000.0, 0.0, 0.02);
}

TEST(ParamGen, HashedFloatIsTheHashChain)
{
    using paramgen::hash;
    Rng rng(2020);
    for (int k = 0; k < 10000; ++k) {
        const std::uint64_t d = rng.next(), a = rng.next(),
                            b = rng.next(), c = rng.next();
        const float s = static_cast<float>(rng.nextDouble(0.001, 2.0));
        const float expect =
            paramgen::unitFloat(hash(hash(hash(hash(d) ^ a) ^ b) ^ c)) * s;
        const float got = paramgen::hashedFloat(d, a, b, c, s);
        ASSERT_EQ(std::memcmp(&got, &expect, sizeof(float)), 0)
            << "tuple " << k;
        ASSERT_EQ(hash(paramgen::prefix(d, a, b) ^ c),
                  hash(hash(hash(hash(d) ^ a) ^ b) ^ c));
    }
}

TEST(EmbeddingTable, ValuesAreDeterministic)
{
    VirtualEmbeddingTable a(0, 1000, 32, 0x1000);
    VirtualEmbeddingTable b(0, 1000, 32, 0x9999); // base is timing-only
    EXPECT_EQ(a.element(5, 7), b.element(5, 7));
}

TEST(EmbeddingTable, DistinctTablesDiffer)
{
    VirtualEmbeddingTable a(0, 1000, 32, 0);
    VirtualEmbeddingTable b(1, 1000, 32, 0);
    int same = 0;
    for (std::uint32_t d = 0; d < 32; ++d)
        same += (a.element(0, d) == b.element(0, d));
    EXPECT_LT(same, 3);
}

TEST(EmbeddingTable, RowMaterializationMatchesElements)
{
    VirtualEmbeddingTable t(3, 100, 32, 0);
    std::vector<float> row(32);
    t.row(42, row.data());
    for (std::uint32_t d = 0; d < 32; ++d)
        EXPECT_EQ(row[d], t.element(42, d));
}

TEST(EmbeddingTable, ElementIsHashedFloat)
{
    VirtualEmbeddingTable t(6, 1000, 64, 0);
    for (std::uint64_t row : {0ull, 1ull, 517ull, 999ull})
        for (std::uint32_t d = 0; d < 64; ++d)
            EXPECT_EQ(t.element(row, d),
                      paramgen::hashedFloat(0xE3B0, 6, row, d, 0.05f));
}

TEST(EmbeddingTable, AccumulateRowIsBitExact)
{
    VirtualEmbeddingTable t(2, 5000, 64, 0);
    std::vector<float> got(64), expect(64);
    for (std::uint32_t d = 0; d < 64; ++d)
        got[d] = expect[d] = 0.001f * static_cast<float>(d) - 0.03f;
    for (std::uint64_t row : {4999ull, 0ull, 123ull, 123ull, 4000ull}) {
        t.accumulateRow(row, got.data());
        for (std::uint32_t d = 0; d < 64; ++d)
            expect[d] += t.element(row, d);
    }
    EXPECT_EQ(std::memcmp(got.data(), expect.data(), 64 * sizeof(float)),
              0);
}

TEST(EmbeddingTable, RowAddressesAreContiguous)
{
    VirtualEmbeddingTable t(0, 100, 32, 0x10000);
    EXPECT_EQ(t.rowAddr(0), 0x10000u);
    EXPECT_EQ(t.rowAddr(1), 0x10000u + 128);
    EXPECT_EQ(t.rowBytes(), 128u);
    EXPECT_EQ(t.sizeBytes(), 12800u);
}

TEST(EmbeddingTableDeath, OutOfRangeRowPanics)
{
    VirtualEmbeddingTable t(0, 10, 32, 0);
    EXPECT_DEATH(t.element(10, 0), "out of range");
}

TEST(EmbeddingTableDeath, AccumulateRowOutOfRangePanics)
{
    VirtualEmbeddingTable t(0, 10, 32, 0);
    std::vector<float> out(32);
    EXPECT_DEATH(t.accumulateRow(10, out.data()), "out of range");
}

TEST(EmbeddingTableDeath, RejectsEmptyGeometry)
{
    EXPECT_DEATH(VirtualEmbeddingTable(0, 0, 32, 0), "nonzero");
}

TEST(MemoryLayout, RegionsAreDisjointAndAligned)
{
    const auto layout = MemoryLayout::buildFor(50, 25600000);
    EXPECT_EQ(layout.tableBases.size(), 50u);
    EXPECT_LT(layout.indexArrayBase, layout.denseFeatureBase);
    EXPECT_LT(layout.denseFeatureBase, layout.mlpWeightBase);
    EXPECT_LT(layout.mlpWeightBase, layout.outputBase);
    EXPECT_LT(layout.outputBase, layout.tableBases.front());
    for (std::size_t t = 1; t < layout.tableBases.size(); ++t)
        EXPECT_GE(layout.tableBases[t],
                  layout.tableBases[t - 1] + 25600000);
    for (Addr base : layout.tableBases)
        EXPECT_EQ(base % 4096, 0u);
}

TEST(MemoryLayout, RespectsOrigin)
{
    const auto layout = MemoryLayout::buildFor(1, 1000, 0x40000000);
    EXPECT_GE(layout.indexArrayBase, 0x40000000u);
}

} // namespace
} // namespace centaur
