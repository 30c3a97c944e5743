#include "ctrlplane/ctrl_spec.hh"

#include "sim/spec_number.hh"

namespace centaur {

namespace {

constexpr const char *kGrammar =
    "ctrl:<fixed|adaptive>[:hedge[:<q>]][:scale[:<lo>-<hi>]]";

bool
failWith(std::string *error, const std::string &part,
         const std::string &why)
{
    if (error)
        *error = "bad ctrl part '" + part + "': " + why +
                 "; grammar: " + kGrammar;
    return false;
}

/** Split on ':' keeping empty tokens (they are errors downstream). */
std::vector<std::string>
splitColons(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t colon = text.find(':', start);
        if (colon == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, colon - start));
        start = colon + 1;
    }
}

} // namespace

bool
tryParseCtrlPart(const std::string &part, CtrlConfig *out,
                 std::string *error)
{
    const std::vector<std::string> tok = splitColons(part);
    if (tok.empty() || tok[0] != "ctrl")
        return failWith(error, part, "must start with 'ctrl:'");
    if (tok.size() < 2)
        return failWith(error, part,
                        "needs a window policy, 'fixed' or "
                        "'adaptive'");

    CtrlConfig cfg;
    if (tok[1] == "adaptive") {
        cfg.adaptive = true;
    } else if (tok[1] != "fixed") {
        return failWith(error, part,
                        "unknown window policy '" + tok[1] +
                            "' (want 'fixed' or 'adaptive')");
    }

    for (std::size_t i = 2; i < tok.size(); ++i) {
        if (tok[i] == "hedge") {
            if (cfg.hedge)
                return failWith(error, part, "duplicate 'hedge'");
            cfg.hedge = true;
            // Optional quantile token right after.
            double q = 0.0;
            if (i + 1 < tok.size() &&
                parseSpecNumber(tok[i + 1], &q)) {
                if (q <= 0.0 || q >= 1.0)
                    return failWith(error, part,
                                    "hedge quantile '" + tok[i + 1] +
                                        "' must be in (0, 1)");
                cfg.hedgeQuantile = q;
                ++i;
            }
        } else if (tok[i] == "scale") {
            if (cfg.scale)
                return failWith(error, part, "duplicate 'scale'");
            cfg.scale = true;
            // Optional <lo>-<hi> band token right after.
            if (i + 1 < tok.size() &&
                tok[i + 1].find('-') != std::string::npos) {
                const std::string &band = tok[i + 1];
                const std::size_t dash = band.find('-');
                double lo = 0.0;
                double hi = 0.0;
                if (!parseSpecNumber(band.substr(0, dash), &lo) ||
                    !parseSpecNumber(band.substr(dash + 1), &hi))
                    return failWith(error, part,
                                    "scale band '" + band +
                                        "' must be <lo>-<hi>");
                if (lo < 0.0 || hi > 1.0 || lo >= hi)
                    return failWith(
                        error, part,
                        "scale band '" + band +
                            "' needs 0 <= lo < hi <= 1");
                cfg.scaleLoUtil = lo;
                cfg.scaleHiUtil = hi;
                ++i;
            }
        } else {
            return failWith(error, part,
                            "unknown token '" + tok[i] +
                                "' (want 'hedge' or 'scale')");
        }
    }

    if (out)
        *out = cfg;
    return true;
}

std::string
ctrlPartName(const CtrlConfig &cfg)
{
    std::string name = "ctrl:";
    name += cfg.adaptive ? "adaptive" : "fixed";
    if (cfg.hedge)
        name += ":hedge:" + formatSpecNumber(cfg.hedgeQuantile);
    if (cfg.scale)
        name += ":scale:" + formatSpecNumber(cfg.scaleLoUtil) + "-" +
                formatSpecNumber(cfg.scaleHiUtil);
    return name;
}

const char *
ctrlGrammar()
{
    return kGrammar;
}

std::vector<std::string>
exampleCtrlParts()
{
    return {"ctrl:fixed", "ctrl:adaptive", "ctrl:fixed:hedge:0.99",
            "ctrl:adaptive:hedge:0.95:scale:0.3-0.8"};
}

} // namespace centaur
