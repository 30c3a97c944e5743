/**
 * @file
 * Unit tests for the control-plane policy grammar
 * (ctrlplane/ctrl_spec.hh): canonical-name round trips, default
 * fill-in, rejection with teaching errors, and the integration
 * points — a /ctrl: suffix on backend and cluster spec strings,
 * with the cluster part winning over the inner node part.
 */

#include <gtest/gtest.h>

#include "cluster/cluster_spec.hh"
#include "core/backend.hh"
#include "ctrlplane/ctrl_spec.hh"

namespace centaur {
namespace {

CtrlConfig
parsed(const std::string &part)
{
    CtrlConfig cfg;
    std::string error;
    EXPECT_TRUE(tryParseCtrlPart(part, &cfg, &error))
        << part << ": " << error;
    return cfg;
}

TEST(CtrlSpec, DisabledConfigNamesItselfFixed)
{
    const CtrlConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    EXPECT_EQ(ctrlPartName(cfg), "ctrl:fixed");

    // And parsing "ctrl:fixed" yields a disabled config, so specs
    // that never mention ctrl stay on the open-loop engine.
    EXPECT_FALSE(parsed("ctrl:fixed").enabled());
}

TEST(CtrlSpec, CanonicalNamesRoundTrip)
{
    for (const char *part :
         {"ctrl:fixed", "ctrl:adaptive", "ctrl:fixed:hedge:0.9",
          "ctrl:adaptive:hedge:0.95", "ctrl:adaptive:scale:0.3-0.8",
          "ctrl:fixed:scale:0.25-0.75",
          "ctrl:adaptive:hedge:0.99:scale:0.2-0.9"}) {
        const CtrlConfig cfg = parsed(part);
        EXPECT_EQ(ctrlPartName(cfg), part);
        EXPECT_EQ(parsed(ctrlPartName(cfg)), cfg) << part;
    }
}

TEST(CtrlSpec, OptionalTokensFillDefaults)
{
    const CtrlConfig hedge = parsed("ctrl:adaptive:hedge");
    EXPECT_TRUE(hedge.adaptive);
    EXPECT_TRUE(hedge.hedge);
    EXPECT_DOUBLE_EQ(hedge.hedgeQuantile, 0.95);
    EXPECT_EQ(ctrlPartName(hedge), "ctrl:adaptive:hedge:0.95");

    const CtrlConfig scale = parsed("ctrl:fixed:scale");
    EXPECT_FALSE(scale.adaptive);
    EXPECT_TRUE(scale.scale);
    EXPECT_DOUBLE_EQ(scale.scaleLoUtil, 0.3);
    EXPECT_DOUBLE_EQ(scale.scaleHiUtil, 0.8);
    EXPECT_EQ(ctrlPartName(scale), "ctrl:fixed:scale:0.3-0.8");

    // Token order is free: scale-then-hedge parses to the same
    // config (the canonical name fixes the order).
    EXPECT_EQ(parsed("ctrl:adaptive:scale:0.3-0.8:hedge:0.9"),
              parsed("ctrl:adaptive:hedge:0.9:scale:0.3-0.8"));
}

TEST(CtrlSpec, MalformedPartsAreRejectedWithTheGrammar)
{
    for (const char *bad :
         {"", "ctl:fixed", "ctrl", "ctrl:", "ctrl:bogus",
          "ctrl:fixed:turbo", "ctrl:fixed:hedge:0",
          "ctrl:fixed:hedge:1", "ctrl:fixed:hedge:1.5",
          "ctrl:adaptive:hedge:0.9:hedge",
          "ctrl:adaptive:scale:0.8-0.3", "ctrl:adaptive:scale:0.3-1.5",
          "ctrl:adaptive:scale:0.3-0.8:scale"}) {
        CtrlConfig cfg;
        std::string error;
        EXPECT_FALSE(tryParseCtrlPart(bad, &cfg, &error)) << bad;
        // The error teaches the grammar.
        EXPECT_NE(error.find("grammar"), std::string::npos) << error;
    }
}

TEST(CtrlSpec, NonFiniteNumbersAreRejectedByName)
{
    for (const std::string number : {"nan", "inf", "-inf"}) {
        for (const std::string &part :
             {"ctrl:adaptive:hedge:" + number,
              "ctrl:adaptive:scale:" + number + "-0.8",
              "ctrl:adaptive:scale:0.2-" + number}) {
            CtrlConfig cfg;
            std::string error;
            EXPECT_FALSE(tryParseCtrlPart(part, &cfg, &error)) << part;
            EXPECT_NE(error.find(number), std::string::npos) << error;
            EXPECT_NE(error.find("grammar"), std::string::npos)
                << error;
        }
    }
}

TEST(CtrlSpec, ExamplesAndGrammarAreConsistent)
{
    EXPECT_NE(std::string(ctrlGrammar()).find("ctrl:"),
              std::string::npos);
    for (const std::string &part : exampleCtrlParts()) {
        const CtrlConfig cfg = parsed(part);
        EXPECT_EQ(ctrlPartName(cfg), part);
    }
}

TEST(CtrlSpec, BackendSpecCarriesTheCtrlSuffix)
{
    SystemSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseSpec("cpu+fpga/ctrl:adaptive:hedge:0.9",
                             &spec, &error))
        << error;
    EXPECT_TRUE(spec.ctrl.adaptive);
    EXPECT_TRUE(spec.ctrl.hedge);
    EXPECT_DOUBLE_EQ(spec.ctrl.hedgeQuantile, 0.9);

    // A bare registered name keeps the disabled default.
    ASSERT_TRUE(tryParseSpec("cpu+fpga", &spec, &error)) << error;
    EXPECT_FALSE(spec.ctrl.enabled());

    // Bad ctrl tokens fail the whole spec parse.
    EXPECT_FALSE(
        tryParseSpec("cpu+fpga/ctrl:bogus", &spec, &error));
    EXPECT_FALSE(tryParseSpec("cpu+fpga/ctrl:fixed/ctrl:adaptive",
                              &spec, &error));
}

TEST(CtrlSpec, ClusterSpecCarriesTheCtrlSuffix)
{
    ClusterSpec cluster;
    std::string error;

    // A cluster-level /ctrl: part parses into the cluster config; a
    // node-level part stays inside the inner node spec (the engine
    // resolves the precedence, cluster part first).
    ASSERT_TRUE(tryParseClusterSpec(
                    "cluster:2x(cpu/ctrl:adaptive)/ctrl:fixed:hedge:0.9",
                    &cluster, &error))
        << error;
    EXPECT_FALSE(cluster.ctrl.adaptive);
    EXPECT_TRUE(cluster.ctrl.hedge);
    EXPECT_DOUBLE_EQ(cluster.ctrl.hedgeQuantile, 0.9);
    EXPECT_EQ(cluster.nodeSpec, "cpu/ctrl:adaptive");

    // The canonical cluster name keeps the enabled suffix.
    EXPECT_NE(clusterSpecName(cluster).find("/ctrl:fixed:hedge:0.9"),
              std::string::npos);

    ASSERT_TRUE(tryParseClusterSpec("cluster:2x(cpu)", &cluster,
                                    &error))
        << error;
    EXPECT_FALSE(cluster.ctrl.enabled());

    EXPECT_FALSE(tryParseClusterSpec("cluster:2x(cpu)/ctrl:warp",
                                     &cluster, &error));
}

} // namespace
} // namespace centaur
