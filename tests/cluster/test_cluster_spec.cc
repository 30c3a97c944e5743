/**
 * @file
 * Unit tests for the cluster-spec grammar (cluster/cluster_spec.hh):
 * defaults, full-string parsing, canonical-name round trips, and the
 * guarantee that a rejected spec's error message names the bad token
 * so a CLI user can see exactly what to fix.
 */

#include <gtest/gtest.h>

#include "cluster/cluster_spec.hh"

namespace centaur {
namespace {

TEST(ClusterSpecParse, MinimalSpecTakesTheDefaults)
{
    const ClusterSpec spec = parseClusterSpec("cluster:1x(cpu)");
    EXPECT_EQ(spec.nodes, 1u);
    EXPECT_EQ(spec.nodeSpec, "cpu");
    EXPECT_EQ(spec.shard, ShardPolicy::Hash);
    EXPECT_EQ(spec.replicas, 1u);
    EXPECT_EQ(spec.route, RoutePolicy::ShardAffinity);
    EXPECT_FALSE(spec.net.nullNet);
    EXPECT_DOUBLE_EQ(spec.net.nicGBps, 12.5);
}

TEST(ClusterSpecParse, FullSpecParsesEveryPart)
{
    const ClusterSpec spec = parseClusterSpec(
        "cluster:4x(cpu+fpga)/shard:range:2/route:least/net:1.5:3:40");
    EXPECT_EQ(spec.nodes, 4u);
    EXPECT_EQ(spec.nodeSpec, "cpu+fpga");
    EXPECT_EQ(spec.shard, ShardPolicy::Range);
    EXPECT_EQ(spec.replicas, 2u);
    EXPECT_EQ(spec.route, RoutePolicy::LeastLoaded);
    EXPECT_FALSE(spec.net.nullNet);
    EXPECT_DOUBLE_EQ(spec.net.nicGBps, 1.5);
    EXPECT_DOUBLE_EQ(spec.net.readLatencyUs, 3.0);
    EXPECT_DOUBLE_EQ(spec.net.setupUs, 40.0);
}

TEST(ClusterSpecParse, PartsComposeInAnyOrder)
{
    const ClusterSpec a = parseClusterSpec(
        "cluster:2x(cpu)/route:random/shard:range");
    const ClusterSpec b = parseClusterSpec(
        "cluster:2x(cpu)/shard:range/route:random");
    EXPECT_EQ(a, b);
}

TEST(ClusterSpecParse, NullNetIsRecognized)
{
    const ClusterSpec spec =
        parseClusterSpec("cluster:1x(cpu+fpga)/net:null");
    EXPECT_TRUE(spec.net.nullNet);
}

TEST(ClusterSpecParse, IsClusterSpecSeparatesTheGrammars)
{
    EXPECT_TRUE(isClusterSpec("cluster:1x(cpu)"));
    EXPECT_TRUE(isClusterSpec("cluster:garbage"));
    EXPECT_FALSE(isClusterSpec("cpu+fpga"));
    EXPECT_FALSE(isClusterSpec(""));
}

// The canonical name must round-trip: parse(name(spec)) == spec, and
// default-valued parts must be omitted from the name.
TEST(ClusterSpecName, RoundTripsEveryExample)
{
    for (const std::string &s : exampleClusterSpecs()) {
        const ClusterSpec spec = parseClusterSpec(s);
        const std::string name = clusterSpecName(spec);
        SCOPED_TRACE(s + " -> " + name);
        EXPECT_EQ(parseClusterSpec(name), spec);
        // Canonical names are fixed points of the canonicalizer.
        EXPECT_EQ(clusterSpecName(parseClusterSpec(name)), name);
    }
}

TEST(ClusterSpecName, OmitsDefaultParts)
{
    EXPECT_EQ(clusterSpecName(parseClusterSpec(
                  "cluster:2x(cpu)/shard:hash:1/route:affinity"
                  "/net:12.5:2:25")),
              "cluster:2x(cpu)");
    EXPECT_EQ(clusterSpecName(parseClusterSpec(
                  "cluster:4x(cpu+fpga)/shard:hash:2")),
              "cluster:4x(cpu+fpga)/shard:hash:2");
}

// Rejection must name the offending token (the CLI prints this
// verbatim), plus the grammar so the user can fix the string.
TEST(ClusterSpecParse, RejectionNamesTheBadToken)
{
    const struct
    {
        const char *spec;
        const char *token; //!< must appear in the error
    } cases[] = {
        {"cpu+fpga", "cluster:"},
        {"cluster:0x(cpu)", "'0'"},
        {"cluster:x(cpu)", "''"},
        {"cluster:2(cpu)", "after 'cluster:'"}, // no 'x' separator
        {"cluster:2x(tpu)", "'tpu'"},
        {"cluster:2x(cpu", "unclosed"},
        {"cluster:2x(cpu)/shard:mod", "'mod'"},
        {"cluster:2x(cpu)/shard:hash:0", "'0'"},
        {"cluster:2x(cpu)/route:sticky", "'sticky'"},
        {"cluster:2x(cpu)/net:0", "'0'"},
        {"cluster:2x(cpu)/net:1:2:3:4", "'1:2:3:4'"},
        {"cluster:2x(cpu)/speed:fast", "'speed:fast'"},
        {"cluster:2x(cpu)/shard:hash/shard:range", "duplicate"},
        {"cluster:2x(cpu)/shard:hash:4", "exceed"},
    };
    for (const auto &c : cases) {
        ClusterSpec out;
        std::string error;
        SCOPED_TRACE(c.spec);
        EXPECT_FALSE(tryParseClusterSpec(c.spec, &out, &error));
        EXPECT_NE(error.find(c.token), std::string::npos) << error;
        // Every rejection cites the grammar.
        EXPECT_NE(error.find("cluster:<N>x(<spec>)"),
                  std::string::npos)
            << error;
    }
}

TEST(ClusterSpecParse, NonFiniteNetNumbersAreRejectedByName)
{
    for (const std::string prefix :
         {"cluster:2x(cpu)/net:", "cluster:2x(cpu)/net:10:",
          "cluster:2x(cpu)/net:10:2:"}) {
        for (const std::string number : {"nan", "inf", "-inf"}) {
            const std::string spec = prefix + number;
            ClusterSpec out;
            std::string error;
            EXPECT_FALSE(tryParseClusterSpec(spec, &out, &error))
                << spec;
            EXPECT_NE(error.find("'" + number + "'"),
                      std::string::npos)
                << error;
        }
    }
}

TEST(ClusterSpecParse, PolicyNamesRoundTrip)
{
    for (RoutePolicy p :
         {RoutePolicy::Random, RoutePolicy::LeastLoaded,
          RoutePolicy::ShardAffinity}) {
        RoutePolicy parsed;
        ASSERT_TRUE(tryParseRoutePolicy(routePolicyName(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
    std::string error;
    EXPECT_FALSE(tryParseRoutePolicy("sticky", nullptr, &error));
    EXPECT_NE(error.find("'sticky'"), std::string::npos);
}

} // namespace
} // namespace centaur
