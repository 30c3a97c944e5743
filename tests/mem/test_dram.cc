/**
 * @file
 * Unit and property tests for the DDR4 timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/dram.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

TEST(DramConfig, DefaultsMatchTheEvaluationPlatform)
{
    DramConfig cfg;
    EXPECT_EQ(cfg.channels, 4u);
    EXPECT_EQ(cfg.rowBytes, 8192u); // 8 KB row buffer (paper)
    // ~77 GB/s peak as the paper quotes.
    EXPECT_NEAR(cfg.peakBandwidthGBps(), 77.0, 1.0);
    EXPECT_EQ(cfg.banksPerChannel(), 32u);
    EXPECT_EQ(cfg.linesPerRow(), 128u);
}

TEST(DramModel, FirstAccessPaysActivateAndCas)
{
    DramModel dram;
    const auto res = dram.access(0, 0);
    EXPECT_FALSE(res.rowHit);
    EXPECT_FALSE(res.rowOpen);
    // controller + tRCD + tCAS + burst.
    const Tick expected = ticksFromNs(30.0 + 14.16 + 14.16 + 3.33);
    EXPECT_NEAR(static_cast<double>(res.completion),
                static_cast<double>(expected), 10.0);
}

TEST(DramModel, SecondAccessToSameRowIsARowHit)
{
    DramModel dram;
    // Lines 0 and 4 interleave to the same channel (4 channels) and
    // land in the same row buffer.
    const auto first = dram.access(0, 0);
    const auto second = dram.access(4 * 64, first.completion);
    EXPECT_TRUE(second.rowHit);
    // Row hit skips precharge/activate: just CAS + burst.
    EXPECT_LT(second.completion - first.completion,
              ticksFromNs(30.0 + 14.16 + 3.33 + 1.0));
}

TEST(DramModel, RowConflictPaysPrecharge)
{
    DramConfig cfg;
    DramModel dram(cfg);
    // Two different rows of the same bank: same channel line group,
    // offset by banks * rowBytes worth of channel lines.
    const Addr a = 0;
    const std::uint64_t lines_per_row = cfg.linesPerRow();
    const std::uint64_t stride = static_cast<std::uint64_t>(
        cfg.channels) * lines_per_row * cfg.banksPerChannel() * 64;
    // a + stride maps to the same (channel, bank) but row + 1
    // with the XOR fold applied consistently.
    const auto c1 = dram.addressMap().map(a);
    const auto c2 = dram.addressMap().map(a + stride);
    ASSERT_EQ(c1.channel, c2.channel);
    const auto r1 = dram.access(a, 0);
    const auto r2 = dram.access(a + stride, r1.completion);
    EXPECT_FALSE(r2.rowHit);
}

TEST(DramModel, BackToBackSameBankSerializes)
{
    DramModel dram;
    // Same line re-read instantly: row hit but bank/bus busy.
    const auto r1 = dram.access(0, 0);
    const auto r2 = dram.access(0, 0);
    EXPECT_TRUE(r2.rowHit);
    EXPECT_GT(r2.completion, r1.completion);
}

TEST(DramModel, ChannelBusEnforcesPeakBandwidth)
{
    // Hammer a single channel with row hits: completions must not
    // imply more than per-channel bandwidth.
    DramConfig cfg;
    DramModel dram(cfg);
    const int n = 2000;
    Tick last = 0;
    int same_channel = 0;
    const auto ref = dram.addressMap().map(0);
    for (int i = 0; i < n; ++i) {
        const Addr a = static_cast<Addr>(i % 64) * 64;
        if (dram.addressMap().map(a).channel != ref.channel)
            continue;
        ++same_channel;
        last = std::max(last, dram.access(a, 0).completion);
    }
    const double gbps = gbPerSec(
        static_cast<std::uint64_t>(same_channel) * 64, last);
    EXPECT_LE(gbps, cfg.peakBandwidthGBps() / cfg.channels * 1.05);
}

TEST(DramModel, RandomStreamBandwidthIsBounded)
{
    DramConfig cfg;
    DramModel dram(cfg);
    Rng rng(3);
    Tick last = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        last = std::max(last,
                        dram.access(rng.nextBelow(1 << 24) * 64, 0)
                            .completion);
    const double gbps =
        gbPerSec(static_cast<std::uint64_t>(n) * 64, last);
    EXPECT_LE(gbps, cfg.peakBandwidthGBps() * 1.01);
    EXPECT_GT(gbps, 5.0); // banks do provide parallelism
}

TEST(DramModel, SequentialStreamHasHighRowHitRate)
{
    DramModel dram;
    Tick t = 0;
    for (Addr line = 0; line < 8192; ++line) {
        t = dram.access(line * 64, t).completion;
    }
    EXPECT_GT(dram.rowHitRate(), 0.9);
}

TEST(DramModel, RandomStreamHasLowRowHitRate)
{
    DramModel dram;
    Rng rng(4);
    Tick t = 0;
    for (int i = 0; i < 8192; ++i)
        t = dram.access(rng.nextBelow(1 << 26) * 64, t).completion;
    EXPECT_LT(dram.rowHitRate(), 0.2);
}

TEST(DramModel, AccessRangeCoversAllLines)
{
    DramModel dram;
    dram.accessRange(0, 64 * 10, 0);
    EXPECT_EQ(dram.reads(), 10u);
}

TEST(DramModel, AccessRangeUnalignedTouchesBothEdges)
{
    DramModel dram;
    dram.accessRange(60, 8, 0); // straddles a line boundary
    EXPECT_EQ(dram.reads(), 2u);
}

TEST(DramModel, AccessRangeZeroBytesIsFree)
{
    DramModel dram;
    EXPECT_EQ(dram.accessRange(0, 0, 123), 123u);
    EXPECT_EQ(dram.reads(), 0u);
}

TEST(DramModel, ResetClearsStateAndStats)
{
    DramModel dram;
    dram.access(0, 0);
    dram.reset();
    EXPECT_EQ(dram.reads(), 0u);
    EXPECT_EQ(dram.rowHits(), 0u);
    const auto res = dram.access(64, 0);
    EXPECT_FALSE(res.rowHit); // row buffer was closed by reset
}

TEST(DramModel, LatencyStatIsSampled)
{
    DramModel dram;
    dram.access(0, 0);
    const auto *avg = dram.stats().findAverage("latency_ns");
    ASSERT_NE(avg, nullptr);
    EXPECT_EQ(avg->count(), 1u);
    EXPECT_GT(avg->mean(), 30.0);
}

TEST(DramModel, LaterIssueYieldsLaterCompletion)
{
    DramModel dram;
    const auto r1 = dram.access(0, 0);
    DramModel dram2;
    const auto r2 = dram2.access(0, 1000000);
    EXPECT_GT(r2.completion, r1.completion);
}


TEST(DramModel, RefreshStallsAccessesInWindow)
{
    DramConfig cfg;
    DramModel dram(cfg);
    // An access issued inside the tRFC window at the tail of a
    // tREFI period waits for the refresh to finish.
    const Tick refi = ticksFromNs(cfg.tRefiNs);
    const Tick inside = refi - ticksFromNs(cfg.tRfcNs / 2.0);
    const auto stalled = dram.access(0, inside);
    DramConfig no_refresh = cfg;
    no_refresh.tRefiNs = 0.0;
    DramModel free(no_refresh);
    const auto clean = free.access(0, inside);
    EXPECT_GT(stalled.completion, clean.completion);
}

TEST(DramModel, RefreshClosesRowBuffers)
{
    DramConfig cfg;
    DramModel dram(cfg);
    // Open a row mid-period, then access the same row inside the
    // refresh window: the reopened bank row-misses.
    const Tick refi = ticksFromNs(cfg.tRefiNs);
    (void)dram.access(0, refi / 2);
    const auto after =
        dram.access(4 * 64, refi - ticksFromNs(cfg.tRfcNs / 2.0));
    EXPECT_FALSE(after.rowHit);
}

TEST(DramModel, RefreshDisabledHasNoWindows)
{
    DramConfig cfg;
    cfg.tRefiNs = 0.0;
    DramModel dram(cfg);
    const Tick issue = ticksFromNs(7800.0 - 100.0);
    const auto r = dram.access(0, issue);
    // Without refresh the access proceeds immediately despite being
    // inside what would be a refresh window.
    EXPECT_LT(nsFromTicks(r.completion - issue), 100.0);
}

TEST(DramModel, AddressMapUsesTheConfiguredLineSize)
{
    DramConfig cfg;
    cfg.lineBytes = 128;
    DramModel dram(cfg);
    EXPECT_EQ(dram.addressMap().lineBytes(), 128u);
    EXPECT_EQ(dram.addressMap().linesPerRow(), 64u);
}

TEST(DramModelDeath, RejectsRowBytesNotAMultipleOfLineBytes)
{
    DramConfig cfg;
    cfg.rowBytes = 8192 + 32;
    EXPECT_EXIT(DramModel{cfg}, ::testing::ExitedWithCode(1),
                "rowBytes.*multiple of DramConfig.lineBytes");
    cfg.rowBytes = 32;
    EXPECT_EXIT(DramModel{cfg}, ::testing::ExitedWithCode(1),
                "rowBytes.*multiple of DramConfig.lineBytes");
    cfg.rowBytes = 0;
    EXPECT_EXIT(DramModel{cfg}, ::testing::ExitedWithCode(1),
                "rowBytes.*positive");
    cfg.rowBytes = 8192;
    cfg.lineBytes = 0;
    EXPECT_EXIT(DramModel{cfg}, ::testing::ExitedWithCode(1),
                "lineBytes must be positive");
}

TEST(DramModelDeath, RejectsZeroChannelsRanksOrBanks)
{
    DramConfig noChannels;
    noChannels.channels = 0;
    DramConfig noRanks;
    noRanks.ranksPerChannel = 0;
    DramConfig noBanks;
    noBanks.banksPerRank = 0;
    for (const DramConfig &cfg : {noChannels, noRanks, noBanks})
        EXPECT_EXIT(DramModel{cfg}, ::testing::ExitedWithCode(1),
                    "channels.*ranksPerChannel.*banksPerRank.*positive");
}

} // namespace
} // namespace centaur
