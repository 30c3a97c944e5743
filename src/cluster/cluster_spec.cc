#include "cluster/cluster_spec.hh"

#include "core/backend.hh"
#include "sim/log.hh"
#include "sim/spec_number.hh"

namespace centaur {

const char *
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::Random:
        return "random";
      case RoutePolicy::LeastLoaded:
        return "least";
      case RoutePolicy::ShardAffinity:
        return "affinity";
    }
    panic("unknown route policy");
}

bool
tryParseRoutePolicy(const std::string &name, RoutePolicy *out,
                    std::string *error)
{
    RoutePolicy policy;
    if (name == "random") {
        policy = RoutePolicy::Random;
    } else if (name == "least") {
        policy = RoutePolicy::LeastLoaded;
    } else if (name == "affinity") {
        policy = RoutePolicy::ShardAffinity;
    } else {
        if (error)
            *error = "unknown route policy '" + name +
                     "' (random | least | affinity)";
        return false;
    }
    if (out)
        *out = policy;
    return true;
}

namespace {

constexpr const char *kGrammar =
    "cluster:<N>x(<spec>)[/shard:<hash|range>[:<replicas>]]"
    "[/route:<random|least|affinity>]"
    "[/net:null | /net:<gbps>[:<read-lat>[:<setup>]]]"
    "[/cache:<mb>[:<lru|lfu|slru>[:ghost]]]"
    "[/ctrl:<fixed|adaptive>[:hedge[:<q>]][:scale[:<lo>-<hi>]]]";

/** Parse a positive decimal integer, consuming the whole string. */
bool
parseCount(const std::string &text, std::uint32_t *out)
{
    if (text.empty() || text.size() > 9)
        return false;
    std::uint32_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (v == 0)
        return false;
    *out = v;
    return true;
}

bool
failWith(std::string *error, const std::string &spec,
         const std::string &why)
{
    if (error)
        *error = "bad cluster spec '" + spec + "': " + why +
                 "; grammar: " + kGrammar;
    return false;
}

bool
parseShardPart(const std::string &part, const std::string &spec,
               ClusterSpec *cfg, std::string *error)
{
    // part is everything after "shard:".
    const std::size_t colon = part.find(':');
    const std::string policy =
        colon == std::string::npos ? part : part.substr(0, colon);
    std::string policy_error;
    if (!tryParseShardPolicy(policy, &cfg->shard, &policy_error))
        return failWith(error, spec, policy_error);
    if (colon == std::string::npos)
        return true;
    if (!parseCount(part.substr(colon + 1), &cfg->replicas))
        return failWith(error, spec,
                        "shard replicas must be a positive count, "
                        "got '" + part.substr(colon + 1) + "'");
    return true;
}

bool
parseNetPart(const std::string &part, const std::string &spec,
             ClusterSpec *cfg, std::string *error)
{
    // part is everything after "net:".
    if (part == "null") {
        cfg->net.nullNet = true;
        return true;
    }
    cfg->net.nullNet = false;
    std::vector<std::string> fields;
    std::size_t begin = 0;
    while (begin <= part.size()) {
        const std::size_t colon = part.find(':', begin);
        if (colon == std::string::npos) {
            fields.push_back(part.substr(begin));
            break;
        }
        fields.push_back(part.substr(begin, colon - begin));
        begin = colon + 1;
    }
    if (fields.size() > 3)
        return failWith(error, spec,
                        "net takes at most gbps:read-lat:setup, "
                        "got '" + part + "'");
    if (!parseSpecNumber(fields[0], &cfg->net.nicGBps) ||
        cfg->net.nicGBps <= 0.0)
        return failWith(error, spec,
                        "net bandwidth must be a positive GB/s, "
                        "got '" + fields[0] + "'");
    if (fields.size() >= 2) {
        if (!parseSpecNumber(fields[1], &cfg->net.readLatencyUs) ||
            cfg->net.readLatencyUs < 0.0)
            return failWith(error, spec,
                            "net read latency must be a nonnegative "
                            "us, got '" + fields[1] + "'");
    }
    if (fields.size() >= 3) {
        if (!parseSpecNumber(fields[2], &cfg->net.setupUs) ||
            cfg->net.setupUs < 0.0)
            return failWith(error, spec,
                            "net setup cost must be a nonnegative "
                            "us, got '" + fields[2] + "'");
    }
    return true;
}

} // namespace

bool
isClusterSpec(const std::string &spec)
{
    return spec.rfind("cluster:", 0) == 0;
}

bool
tryParseClusterSpec(const std::string &spec, ClusterSpec *out,
                    std::string *error)
{
    if (!isClusterSpec(spec))
        return failWith(error, spec, "missing 'cluster:' prefix");

    ClusterSpec cfg;
    std::string head = spec.substr(8);

    // <N>x(<spec>)
    const std::size_t x = head.find('x');
    if (x == std::string::npos)
        return failWith(error, spec,
                        "expected <N>x(<spec>) after 'cluster:'");
    if (!parseCount(head.substr(0, x), &cfg.nodes))
        return failWith(error, spec,
                        "node count must be a positive integer, "
                        "got '" + head.substr(0, x) + "'");
    if (x + 1 >= head.size() || head[x + 1] != '(')
        return failWith(error, spec,
                        "expected '(' after the node count");
    const std::size_t close = head.find(')', x + 2);
    if (close == std::string::npos)
        return failWith(error, spec, "unclosed '(' in node spec");
    cfg.nodeSpec = head.substr(x + 2, close - (x + 2));
    std::string spec_error;
    if (!tryParseSpec(cfg.nodeSpec, nullptr, &spec_error))
        return failWith(error, spec, spec_error);

    // Optional /key:... parts, any order, no duplicates.
    bool saw_shard = false;
    bool saw_route = false;
    bool saw_net = false;
    bool saw_cache = false;
    bool saw_ctrl = false;
    std::size_t begin = close + 1;
    while (begin < head.size()) {
        if (head[begin] != '/')
            return failWith(error, spec,
                            "expected '/' before '" +
                                head.substr(begin) + "'");
        ++begin;
        std::size_t end = head.find('/', begin);
        if (end == std::string::npos)
            end = head.size();
        const std::string part = head.substr(begin, end - begin);
        begin = end;
        if (part.rfind("shard:", 0) == 0) {
            if (saw_shard)
                return failWith(error, spec, "duplicate shard part");
            saw_shard = true;
            if (!parseShardPart(part.substr(6), spec, &cfg, error))
                return false;
        } else if (part.rfind("route:", 0) == 0) {
            if (saw_route)
                return failWith(error, spec, "duplicate route part");
            saw_route = true;
            std::string route_error;
            if (!tryParseRoutePolicy(part.substr(6), &cfg.route,
                                     &route_error))
                return failWith(error, spec, route_error);
        } else if (part.rfind("net:", 0) == 0) {
            if (saw_net)
                return failWith(error, spec, "duplicate net part");
            saw_net = true;
            if (!parseNetPart(part.substr(4), spec, &cfg, error))
                return false;
        } else if (part.rfind("cache:", 0) == 0) {
            if (saw_cache)
                return failWith(error, spec, "duplicate cache part");
            saw_cache = true;
            std::string cache_error;
            if (!tryParseCachePart(part, &cfg.cache, &cache_error))
                return failWith(error, spec, cache_error);
        } else if (part.rfind("ctrl:", 0) == 0) {
            if (saw_ctrl)
                return failWith(error, spec, "duplicate ctrl part");
            saw_ctrl = true;
            std::string ctrl_error;
            if (!tryParseCtrlPart(part, &cfg.ctrl, &ctrl_error))
                return failWith(error, spec, ctrl_error);
        } else {
            return failWith(error, spec,
                            "unknown part '" + part +
                                "' (shard: | route: | net: | "
                                "cache: | ctrl:)");
        }
    }

    if (cfg.replicas > cfg.nodes)
        return failWith(error, spec,
                        "replicas (" +
                            std::to_string(cfg.replicas) +
                            ") cannot exceed nodes (" +
                            std::to_string(cfg.nodes) + ")");
    if (out)
        *out = std::move(cfg);
    return true;
}

ClusterSpec
parseClusterSpec(const std::string &spec)
{
    ClusterSpec cfg;
    std::string error;
    if (!tryParseClusterSpec(spec, &cfg, &error))
        fatal(error);
    return cfg;
}

std::string
clusterSpecName(const ClusterSpec &spec)
{
    const ClusterSpec defaults;
    std::string name = "cluster:" + std::to_string(spec.nodes) + "x(" +
                       spec.nodeSpec + ")";
    if (spec.shard != defaults.shard ||
        spec.replicas != defaults.replicas) {
        name += "/shard:" + std::string(shardPolicyName(spec.shard));
        if (spec.replicas != defaults.replicas)
            name += ":" + std::to_string(spec.replicas);
    }
    if (spec.route != defaults.route)
        name += "/route:" + std::string(routePolicyName(spec.route));
    if (spec.net != defaults.net) {
        if (spec.net.nullNet) {
            name += "/net:null";
        } else {
            name += "/net:" + formatSpecNumber(spec.net.nicGBps) + ":" +
                    formatSpecNumber(spec.net.readLatencyUs) + ":" +
                    formatSpecNumber(spec.net.setupUs);
        }
    }
    if (spec.cache.enabled())
        name += "/" + cachePartName(spec.cache);
    if (spec.ctrl.enabled())
        name += "/" + ctrlPartName(spec.ctrl);
    return name;
}

const char *
clusterSpecGrammar()
{
    return kGrammar;
}

std::vector<std::string>
exampleClusterSpecs()
{
    return {"cluster:4x(cpu+fpga)/shard:hash:2",
            "cluster:2x(cpu)/shard:range/route:random",
            "cluster:4x(cpu+fpga)/route:least/net:12.5:2:25",
            "cluster:1x(cpu+fpga)/net:null",
            "cluster:4x(cpu+fpga)/cache:64:slru:ghost",
            "cluster:4x(cpu)/ctrl:adaptive:hedge:0.95:scale:0.3-0.8"};
}

} // namespace centaur
