/**
 * @file
 * Number tokens of the spec grammars (workload, cluster, ctrl and
 * cache specs): one parser that accepts only finite numbers, and
 * the %g form every grammar writes them back in.
 */

#ifndef CENTAUR_SIM_SPEC_NUMBER_HH
#define CENTAUR_SIM_SPEC_NUMBER_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace centaur {

/**
 * Parse a finite double, consuming the whole token. Rejects empty
 * tokens, trailing garbage, and "nan"/"inf" (which strtod accepts
 * but no spec field can use), leaving @p out untouched.
 */
inline bool
parseSpecNumber(const std::string &token, double *out)
{
    if (token.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/** Shortest %g form that round-trips through parseSpecNumber. */
inline std::string
formatSpecNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace centaur

#endif // CENTAUR_SIM_SPEC_NUMBER_HH
