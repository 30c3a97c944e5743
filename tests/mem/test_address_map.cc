/**
 * @file
 * Unit and property tests for the DRAM address interleaver.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mem/address_map.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

TEST(AddressMap, IsDeterministic)
{
    AddressMap map(4, 32, 128);
    EXPECT_TRUE(map.map(0x12345640) == map.map(0x12345640));
}

TEST(AddressMap, CoordinatesStayInBounds)
{
    AddressMap map(4, 32, 128);
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const auto c = map.map(rng.next() % (1ULL << 40));
        EXPECT_LT(c.channel, 4u);
        EXPECT_LT(c.bank, 32u);
        EXPECT_LT(c.column, 128u);
    }
}

TEST(AddressMap, SameLineSameCoordinate)
{
    AddressMap map(4, 32, 128);
    // All byte addresses within one 64 B line map identically.
    const Addr base = 0xABCDE000;
    const auto ref = map.map(base);
    for (Addr off = 1; off < 64; ++off)
        EXPECT_TRUE(map.map(base + off) == ref);
}

TEST(AddressMap, SequentialLinesSpreadAcrossChannels)
{
    AddressMap map(4, 32, 128);
    std::vector<int> counts(4, 0);
    for (Addr line = 0; line < 4096; ++line)
        ++counts[map.map(line * 64).channel];
    for (int c : counts)
        EXPECT_NEAR(c, 1024, 64);
}

TEST(AddressMap, RandomLinesSpreadAcrossBanks)
{
    AddressMap map(4, 32, 128);
    Rng rng(2);
    std::vector<int> counts(32, 0);
    const int n = 64000;
    for (int i = 0; i < n; ++i)
        ++counts[map.map(rng.nextBelow(1 << 26) * 64).bank];
    for (int c : counts)
        EXPECT_NEAR(c, n / 32, n / 32 * 0.25);
}

TEST(AddressMap, PowerOfTwoStridesStillSpreadBanks)
{
    // Embedding rows at a 128 B pitch (the paper's vector size) must
    // not all land in one bank thanks to the XOR fold.
    AddressMap map(4, 32, 128);
    std::vector<int> counts(32, 0);
    for (Addr row = 0; row < 32000; ++row)
        ++counts[map.map(row * 128).bank];
    int nonzero = 0;
    for (int c : counts)
        nonzero += (c > 0);
    EXPECT_EQ(nonzero, 32);
}

TEST(AddressMap, DistinctLinesWithinRowGetDistinctColumns)
{
    AddressMap map(1, 1, 128); // degenerate: single channel/bank
    std::vector<bool> seen(128, false);
    for (Addr line = 0; line < 128; ++line) {
        const auto c = map.map(line * 64);
        EXPECT_FALSE(seen[c.column]);
        seen[c.column] = true;
    }
}

/** The interleave spelled with hardware `/` and `%`. */
DramCoord
naiveMap(Addr addr, std::uint64_t channels, std::uint64_t banks,
         std::uint64_t lines_per_row, std::uint64_t line_bytes = 64)
{
    const std::uint64_t line = addr / line_bytes;
    const std::uint64_t chan_line = line / channels;
    const std::uint64_t row_major = chan_line / lines_per_row;
    const std::uint64_t row = row_major / banks;
    return DramCoord{
        static_cast<std::uint32_t>((line ^ (line >> 7)) % channels),
        static_cast<std::uint32_t>((row_major ^ row) % banks), row,
        static_cast<std::uint32_t>(chan_line % lines_per_row)};
}

using MapGeometry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class AddressMapNaiveTest : public ::testing::TestWithParam<MapGeometry>
{
};

TEST_P(AddressMapNaiveTest, MatchesHardwareDivision)
{
    const auto [channels, banks, lines_per_row] = GetParam();
    AddressMap map(channels, banks, lines_per_row);
    Rng rng(channels * 1000003ULL + banks * 101 + lines_per_row);
    for (int i = 0; i < 50000; ++i) {
        // Full 64-bit addresses, then the simulator's < 2^40 range.
        const Addr addrs[] = {rng.next(), rng.next() % (Addr{1} << 40)};
        for (const Addr a : addrs) {
            const DramCoord got = map.map(a);
            const DramCoord want =
                naiveMap(a, channels, banks, lines_per_row);
            ASSERT_TRUE(got == want)
                << "addr " << a << ": channel " << got.channel << "/"
                << want.channel << " bank " << got.bank << "/"
                << want.bank << " row " << got.row << "/" << want.row
                << " column " << got.column << "/" << want.column;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressMapNaiveTest,
    ::testing::Values(MapGeometry{4, 32, 128}, // DDR4 default
                      MapGeometry{3, 24, 96},  // no power of two
                      MapGeometry{6, 48, 256}, MapGeometry{1, 1, 1}));

TEST(AddressMap, AccessorsReflectConstruction)
{
    AddressMap map(6, 48, 256);
    EXPECT_EQ(map.channels(), 6u);
    EXPECT_EQ(map.banksPerChannel(), 48u);
    EXPECT_EQ(map.linesPerRow(), 256u);
    EXPECT_EQ(map.lineBytes(), 64u);
    EXPECT_EQ(AddressMap(6, 48, 256, 128).lineBytes(), 128u);
}

TEST(AddressMap, BothHalvesOf128ByteLineMapToOneCoordinate)
{
    // 8 KB rows of 128 B lines.
    AddressMap map(4, 32, 64, 128);
    Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        const Addr base = rng.nextBelow(Addr{1} << 33) * 128;
        const DramCoord lo = map.map(base);
        ASSERT_TRUE(map.map(base + 64) == lo) << "line at " << base;
        ASSERT_TRUE(map.map(base + 127) == lo) << "line at " << base;
        ASSERT_TRUE(lo == naiveMap(base, 4, 32, 64, 128))
            << "line at " << base;
    }
}

} // namespace
} // namespace centaur
