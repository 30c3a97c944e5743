#include "dlrm/workload_spec.hh"

#include "sim/log.hh"
#include "sim/spec_number.hh"

namespace centaur {

namespace {

constexpr const char *kGrammar =
    "uniform | zipf[:<skew>] | trace:<path>"
    " [@poisson:<qps> | @burst:<qps>:<factor>"
    " | @diurnal:<qps>:<amp>[:<period_s>]]"
    " [/slo:<class>:<p99_us>]...";

bool
failWith(std::string *error, const std::string &spec,
         const std::string &why)
{
    if (error)
        *error = "bad workload spec '" + spec + "': " + why +
                 "; grammar: " + kGrammar;
    return false;
}

bool
parseDistribution(const std::string &part, const std::string &spec,
                  WorkloadConfig *cfg, std::string *error)
{
    if (part == "uniform") {
        cfg->dist = IndexDistribution::Uniform;
        return true;
    }
    if (part == "zipf") {
        cfg->dist = IndexDistribution::Zipf;
        return true; // default skew
    }
    if (part.rfind("zipf:", 0) == 0) {
        double skew = 0.0;
        if (!parseSpecNumber(part.substr(5), &skew) || skew < 0.0)
            return failWith(error, spec,
                            "zipf skew must be a nonnegative number");
        cfg->dist = IndexDistribution::Zipf;
        cfg->zipfSkew = skew;
        return true;
    }
    if (part.rfind("trace:", 0) == 0) {
        const std::string path = part.substr(6);
        if (path.empty())
            return failWith(error, spec, "trace needs a file path");
        cfg->dist = IndexDistribution::Trace;
        cfg->tracePath = path;
        return true;
    }
    return failWith(error, spec,
                    "unknown distribution '" + part + "'");
}

bool
parseArrival(const std::string &part, const std::string &spec,
             WorkloadConfig *cfg, std::string *error)
{
    if (part.rfind("poisson:", 0) == 0) {
        double qps = 0.0;
        if (!parseSpecNumber(part.substr(8), &qps) || qps <= 0.0)
            return failWith(error, spec,
                            "poisson rate must be a positive qps");
        cfg->arrival = ArrivalProcess::Poisson;
        cfg->arrivalRatePerSec = qps;
        return true;
    }
    if (part.rfind("burst:", 0) == 0) {
        const std::string rest = part.substr(6);
        const std::size_t colon = rest.find(':');
        if (colon == std::string::npos)
            return failWith(error, spec,
                            "burst needs both a qps and a factor");
        double qps = 0.0;
        double factor = 0.0;
        if (!parseSpecNumber(rest.substr(0, colon), &qps) || qps <= 0.0)
            return failWith(error, spec,
                            "burst rate must be a positive qps");
        if (!parseSpecNumber(rest.substr(colon + 1), &factor) ||
            factor < 1.0)
            return failWith(error, spec,
                            "burst factor must be >= 1");
        cfg->arrival = ArrivalProcess::Burst;
        cfg->arrivalRatePerSec = qps;
        cfg->burstFactor = factor;
        return true;
    }
    if (part.rfind("diurnal:", 0) == 0) {
        const std::string rest = part.substr(8);
        const std::size_t c1 = rest.find(':');
        if (c1 == std::string::npos)
            return failWith(error, spec,
                            "diurnal needs a qps and an amplitude");
        double qps = 0.0;
        if (!parseSpecNumber(rest.substr(0, c1), &qps) || qps <= 0.0)
            return failWith(error, spec,
                            "diurnal rate must be a positive qps");
        const std::size_t c2 = rest.find(':', c1 + 1);
        const std::string amp_text =
            c2 == std::string::npos
                ? rest.substr(c1 + 1)
                : rest.substr(c1 + 1, c2 - c1 - 1);
        double amp = 0.0;
        if (!parseSpecNumber(amp_text, &amp) || amp <= 0.0 || amp >= 1.0)
            return failWith(error, spec,
                            "diurnal amplitude must be in (0, 1)");
        double period_sec = WorkloadConfig{}.diurnalPeriodSec;
        if (c2 != std::string::npos &&
            (!parseSpecNumber(rest.substr(c2 + 1), &period_sec) ||
             period_sec <= 0.0))
            return failWith(error, spec,
                            "diurnal period must be positive "
                            "seconds");
        cfg->arrival = ArrivalProcess::Diurnal;
        cfg->arrivalRatePerSec = qps;
        cfg->diurnalAmplitude = amp;
        cfg->diurnalPeriodSec = period_sec;
        return true;
    }
    return failWith(error, spec,
                    "unknown arrival process '" + part + "'");
}

/** Parse one "slo:<class>:<p99_us>" part (no leading '/'). */
bool
parseSloPart(const std::string &part, const std::string &spec,
             WorkloadConfig *cfg, std::string *error)
{
    // part starts with "slo:".
    const std::string rest = part.substr(4);
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos)
        return failWith(error, spec,
                        "slo part '" + part +
                            "' needs both a class and a p99 target");
    SloClass cls;
    cls.name = rest.substr(0, colon);
    if (cls.name.empty())
        return failWith(error, spec,
                        "slo class name must be nonempty");
    double target_us = 0.0;
    if (!parseSpecNumber(rest.substr(colon + 1), &target_us) ||
        target_us <= 0.0)
        return failWith(error, spec,
                        "slo p99 target for class '" + cls.name +
                            "' must be positive microseconds");
    cls.p99TargetUs = target_us;
    for (const SloClass &seen : cfg->sloClasses)
        if (seen.name == cls.name)
            return failWith(error, spec,
                            "duplicate slo class '" + cls.name +
                                "'");
    cfg->sloClasses.push_back(std::move(cls));
    return true;
}

} // namespace

bool
tryParseWorkloadSpec(const std::string &spec, WorkloadConfig *out,
                     std::string *error)
{
    if (spec.empty())
        return failWith(error, spec, "empty spec");

    WorkloadConfig cfg;
    // SLO classes ride at the end as "/slo:..." parts; split them
    // off first so the distribution/arrival core parses unchanged.
    std::string core = spec;
    const std::size_t slo_at = spec.find("/slo:");
    if (slo_at != std::string::npos) {
        core = spec.substr(0, slo_at);
        std::size_t start = slo_at + 1;
        while (start < spec.size()) {
            const std::size_t slash = spec.find('/', start);
            const std::size_t end =
                slash == std::string::npos ? spec.size() : slash;
            const std::string part =
                spec.substr(start, end - start);
            if (part.rfind("slo:", 0) != 0)
                return failWith(error, spec,
                                "unknown part '" + part +
                                    "' (only /slo: parts may follow "
                                    "the arrival)");
            if (!parseSloPart(part, spec, &cfg, error))
                return false;
            start = end + 1;
        }
        if (core.empty())
            return failWith(error, spec,
                            "slo parts need a distribution first");
    }
    // The arrival separator is the last '@' whose suffix names an
    // arrival process, so '@' inside a trace path stays part of the
    // path ("trace:runs@2026/prod.trace" has no arrival part).
    const std::size_t at = core.rfind('@');
    const bool has_arrival =
        at != std::string::npos &&
        (core.compare(at + 1, 8, "poisson:") == 0 ||
         core.compare(at + 1, 6, "burst:") == 0 ||
         core.compare(at + 1, 8, "diurnal:") == 0);
    const std::string dist_part =
        has_arrival ? core.substr(0, at) : core;
    if (!parseDistribution(dist_part, spec, &cfg, error))
        return false;
    if (has_arrival &&
        !parseArrival(core.substr(at + 1), spec, &cfg, error))
        return false;
    if (out)
        *out = std::move(cfg);
    return true;
}

WorkloadConfig
parseWorkloadSpec(const std::string &spec)
{
    WorkloadConfig cfg;
    std::string error;
    if (!tryParseWorkloadSpec(spec, &cfg, &error))
        fatal(error);
    return cfg;
}

std::string
workloadSpecName(const WorkloadConfig &cfg)
{
    std::string name;
    switch (cfg.dist) {
      case IndexDistribution::Uniform:
        name = "uniform";
        break;
      case IndexDistribution::Zipf:
        name = "zipf:" + formatSpecNumber(cfg.zipfSkew);
        break;
      case IndexDistribution::Trace:
        name = "trace:" + cfg.tracePath;
        break;
    }
    if (cfg.arrivalRatePerSec > 0.0) {
        if (cfg.arrival == ArrivalProcess::Poisson) {
            name += "@poisson:" + formatSpecNumber(cfg.arrivalRatePerSec);
        } else if (cfg.arrival == ArrivalProcess::Burst) {
            name += "@burst:" + formatSpecNumber(cfg.arrivalRatePerSec) +
                    ":" + formatSpecNumber(cfg.burstFactor);
        } else {
            name += "@diurnal:" +
                    formatSpecNumber(cfg.arrivalRatePerSec) + ":" +
                    formatSpecNumber(cfg.diurnalAmplitude) + ":" +
                    formatSpecNumber(cfg.diurnalPeriodSec);
        }
    }
    for (const SloClass &cls : cfg.sloClasses)
        name += "/slo:" + cls.name + ":" +
                formatSpecNumber(cls.p99TargetUs);
    return name;
}

const char *
workloadSpecGrammar()
{
    return kGrammar;
}

std::vector<std::string>
exampleWorkloadSpecs()
{
    return {"uniform", "zipf:0.9", "zipf:1", "trace:prod.trace",
            "zipf:0.99@poisson:8000", "uniform@burst:8000:4",
            "uniform@diurnal:8000:0.5:0.25",
            "zipf:0.9@poisson:8000/slo:rt:2000/slo:batch:20000"};
}

} // namespace centaur
