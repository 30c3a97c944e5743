/**
 * @file
 * Unit tests for the workload-spec grammar: parse/name round trips
 * across distributions and arrival processes, and rejection of
 * malformed specs with a useful error (mirrors
 * tests/core/test_spec.cc for the backend registry).
 */

#include <gtest/gtest.h>

#include "dlrm/workload_spec.hh"

namespace centaur {
namespace {

WorkloadConfig
parsed(const std::string &spec)
{
    WorkloadConfig cfg;
    std::string error;
    EXPECT_TRUE(tryParseWorkloadSpec(spec, &cfg, &error))
        << spec << ": " << error;
    return cfg;
}

TEST(WorkloadSpec, ParsesUniform)
{
    const WorkloadConfig cfg = parsed("uniform");
    EXPECT_EQ(cfg.dist, IndexDistribution::Uniform);
    EXPECT_EQ(cfg.arrivalRatePerSec, 0.0);
    EXPECT_EQ(workloadSpecName(cfg), "uniform");
}

TEST(WorkloadSpec, ParsesZipfWithAndWithoutSkew)
{
    const WorkloadConfig bare = parsed("zipf");
    EXPECT_EQ(bare.dist, IndexDistribution::Zipf);
    EXPECT_DOUBLE_EQ(bare.zipfSkew, 0.9); // default

    const WorkloadConfig skewed = parsed("zipf:1.25");
    EXPECT_EQ(skewed.dist, IndexDistribution::Zipf);
    EXPECT_DOUBLE_EQ(skewed.zipfSkew, 1.25);
    EXPECT_EQ(workloadSpecName(skewed), "zipf:1.25");
}

TEST(WorkloadSpec, ParsesTracePath)
{
    const WorkloadConfig cfg = parsed("trace:/data/prod.trace");
    EXPECT_EQ(cfg.dist, IndexDistribution::Trace);
    EXPECT_EQ(cfg.tracePath, "/data/prod.trace");
    EXPECT_EQ(workloadSpecName(cfg), "trace:/data/prod.trace");
}

TEST(WorkloadSpec, TracePathsMayContainArrivalSeparators)
{
    // '@' only separates an arrival part when the suffix names one,
    // so it can appear inside a trace path.
    const WorkloadConfig plain = parsed("trace:runs@2026/prod.trace");
    EXPECT_EQ(plain.dist, IndexDistribution::Trace);
    EXPECT_EQ(plain.tracePath, "runs@2026/prod.trace");
    EXPECT_EQ(plain.arrivalRatePerSec, 0.0);

    const WorkloadConfig with_arrival =
        parsed("trace:runs@2026/prod.trace@poisson:500");
    EXPECT_EQ(with_arrival.tracePath, "runs@2026/prod.trace");
    EXPECT_DOUBLE_EQ(with_arrival.arrivalRatePerSec, 500.0);
}

TEST(WorkloadSpec, ParsesPoissonArrival)
{
    const WorkloadConfig cfg = parsed("zipf:0.99@poisson:8000");
    EXPECT_EQ(cfg.dist, IndexDistribution::Zipf);
    EXPECT_DOUBLE_EQ(cfg.zipfSkew, 0.99);
    EXPECT_EQ(cfg.arrival, ArrivalProcess::Poisson);
    EXPECT_DOUBLE_EQ(cfg.arrivalRatePerSec, 8000.0);
    EXPECT_EQ(workloadSpecName(cfg), "zipf:0.99@poisson:8000");
}

TEST(WorkloadSpec, ParsesBurstArrival)
{
    const WorkloadConfig cfg = parsed("uniform@burst:8000:4");
    EXPECT_EQ(cfg.dist, IndexDistribution::Uniform);
    EXPECT_EQ(cfg.arrival, ArrivalProcess::Burst);
    EXPECT_DOUBLE_EQ(cfg.arrivalRatePerSec, 8000.0);
    EXPECT_DOUBLE_EQ(cfg.burstFactor, 4.0);
    EXPECT_EQ(workloadSpecName(cfg), "uniform@burst:8000:4");
}

TEST(WorkloadSpec, CanonicalNamesRoundTrip)
{
    for (const std::string &spec : exampleWorkloadSpecs()) {
        WorkloadConfig cfg;
        std::string error;
        ASSERT_TRUE(tryParseWorkloadSpec(spec, &cfg, &error))
            << spec << ": " << error;
        const std::string canonical = workloadSpecName(cfg);
        WorkloadConfig again;
        ASSERT_TRUE(tryParseWorkloadSpec(canonical, &again, &error))
            << canonical << ": " << error;
        EXPECT_EQ(workloadSpecName(again), canonical) << spec;
        EXPECT_EQ(again.dist, cfg.dist) << spec;
        EXPECT_DOUBLE_EQ(again.zipfSkew, cfg.zipfSkew) << spec;
        EXPECT_EQ(again.tracePath, cfg.tracePath) << spec;
        EXPECT_EQ(again.arrival, cfg.arrival) << spec;
        EXPECT_DOUBLE_EQ(again.arrivalRatePerSec,
                         cfg.arrivalRatePerSec)
            << spec;
        EXPECT_DOUBLE_EQ(again.burstFactor, cfg.burstFactor) << spec;
    }
}

TEST(WorkloadSpec, MalformedSpecsAreRejectedWithAClearError)
{
    for (const char *bad :
         {"", "gaussian", "zipf:", "zipf:-1", "zipf:abc", "trace:",
          "uniform@", "uniform@poisson:", "uniform@poisson:0",
          "uniform@poisson:-5", "uniform@burst:8000",
          "uniform@burst:8000:0.5", "uniform@burst::2",
          "uniform@cron:5", "Uniform", "zipf:0.9@"}) {
        WorkloadConfig cfg;
        std::string error;
        EXPECT_FALSE(tryParseWorkloadSpec(bad, &cfg, &error)) << bad;
        // The error quotes the spec and teaches the grammar.
        EXPECT_NE(error.find('\'' + std::string(bad) + '\''),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("grammar"), std::string::npos) << error;
    }
}

// strtod accepts "nan" and "inf"; no numeric field may. Each field
// is tried with every non-finite spelling, and the error quotes the
// spec like any other malformed one.
TEST(WorkloadSpec, NonFiniteNumbersAreRejected)
{
    for (const std::string field :
         {"zipf:#", "uniform@poisson:#", "uniform@burst:#:4",
          "uniform@burst:8000:#", "uniform@diurnal:#:0.5",
          "uniform@diurnal:8000:#", "uniform@diurnal:8000:0.5:#",
          "uniform/slo:gold:#"}) {
        for (const std::string number : {"nan", "inf", "-inf"}) {
            std::string spec = field;
            spec.replace(spec.find('#'), 1, number);
            WorkloadConfig cfg;
            std::string error;
            EXPECT_FALSE(tryParseWorkloadSpec(spec, &cfg, &error))
                << spec;
            EXPECT_NE(error.find('\'' + spec + '\''),
                      std::string::npos)
                << error;
        }
    }
}

TEST(WorkloadSpecDeath, ParseWorkloadSpecIsFatalOnMalformedSpecs)
{
    EXPECT_DEATH((void)parseWorkloadSpec("gaussian"),
                 "bad workload spec");
}

TEST(WorkloadSpec, ArrivalOnlyMattersWhenPinned)
{
    // Sweep-style specs leave the arrival rate unset so the serving
    // layer keeps its configured rate.
    EXPECT_EQ(parsed("uniform").arrivalRatePerSec, 0.0);
    EXPECT_EQ(parsed("zipf:1").arrivalRatePerSec, 0.0);
}

} // namespace
} // namespace centaur
