#include "trace.hh"

#include <memory>

#include "cache/hierarchy.hh"
#include "core/backend.hh"
#include "cpu/cpu_backend.hh"
#include "fpga/fpga_backend.hh"
#include "gpu/gpu_backend.hh"
#include "mem/dram.hh"
#include "sim/log.hh"
#include "sim/walltime.hh"

namespace centaur::perf {

int
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = _stack.empty() ? -1 : _stack.back();
    s.rep = _rep;
    s.startUs = wallMicros();
    _spans.push_back(s);
    const int idx = static_cast<int>(_spans.size()) - 1;
    _stack.push_back(idx);
    return idx;
}

void
SpanLog::close(int span)
{
    if (_stack.empty() || _stack.back() != span)
        panic("span ", _spans[span].name, " closed out of order");
    _stack.pop_back();
    _spans[span].endUs = wallMicros();
}

std::map<std::string, double>
SpanLog::selfUs(int rep) const
{
    std::vector<double> child_us(_spans.size(), 0.0);
    for (const Span &s : _spans)
        if (s.parent >= 0)
            child_us[s.parent] +=
                static_cast<double>(s.endUs - s.startUs);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        if (s.rep == rep)
            out[s.name] +=
                static_cast<double>(s.endUs - s.startUs) - child_us[i];
    }
    return out;
}

std::map<std::string, double>
SpanLog::counts(int rep) const
{
    std::map<std::string, double> out;
    for (const Span &s : _spans)
        if (s.rep == rep)
            out[s.name] += 1.0;
    return out;
}

std::vector<double>
SpanLog::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : _spans)
        if (name == s.name)
            out.push_back(static_cast<double>(s.endUs - s.startUs));
    return out;
}

Json
SpanLog::chromeTrace() const
{
    Json events = Json::array();
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        Json ev = Json::object();
        ev["name"] = s.name;
        ev["ph"] = "X";
        ev["ts"] = s.startUs;
        ev["dur"] = s.endUs - s.startUs;
        ev["pid"] = 1;
        ev["tid"] = 1;
        Json args = Json::object();
        args["span"] = static_cast<long long>(i);
        args["parent"] = s.parent;
        args["rep"] = s.rep;
        ev["args"] = std::move(args);
        events.push(std::move(ev));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return doc;
}

TimedSystem::TimedSystem(System &inner, SpanLog &log)
    : System(inner.config(), inner.power().config()), _inner(inner),
      _log(log), _design(inner.design()), _spec(inner.spec()),
      _tierCfg(inner.cacheTier() ? inner.cacheTier()->config()
                                 : CacheTierConfig{})
{
}

InferenceResult
TimedSystem::infer(const InferenceBatch &batch)
{
    _inner.alignClock(_now);
    InferenceResult res;
    {
        ScopedSpan span(_log, "core.infer");
        res = _inner.infer(batch);
    }
    _now = _inner.now();

    ScopedSpan span(_log, "bench.capture");
    CapturedCall call;
    call.batch = batch;
    call.batch.cacheHit.clear();
    call.start = res.start;
    call.latencyTicks = res.latency();
    call.cacheHits = res.cacheHits;
    call.cacheMisses = res.cacheMisses;
    call.llcAccesses = res.emb.llcAccesses + res.mlp.llcAccesses;
    call.llcMisses = res.emb.llcMisses + res.mlp.llcMisses;
    _calls.push_back(std::move(call));
    return res;
}

namespace {

const char *
embSpanName(EmbBackendKind k)
{
    switch (k) {
      case EmbBackendKind::CpuGather:
        return "cpu.gather";
      case EmbBackendKind::GpuGather:
        return "gpu.gather";
      case EmbBackendKind::EbStreamer:
        return "fpga.eb_streamer";
    }
    return "emb.unknown";
}

const char *
mlpSpanName(MlpBackendKind k)
{
    switch (k) {
      case MlpBackendKind::Cpu:
        return "cpu.mlp";
      case MlpBackendKind::Gpu:
        return "gpu.mlp";
      case MlpBackendKind::Fpga:
        return "fpga.mlp";
    }
    return "mlp.unknown";
}

/**
 * The stage objects of one composed worker, built in the order and
 * with the defaults SystemBuilder uses, so a replay starts from the
 * same simulated platform state as the worker did.
 */
class StageStack
{
  public:
    StageStack(const SystemSpec &spec, const ReferenceModel &model,
               const CacheTierConfig &tier)
        : _hier(broadwellHierarchyConfig()), _dram(DramConfig{})
    {
        if (tier.enabled())
            _tier = std::make_unique<CacheTier>(
                tier, model.config().vectorBytes());
        const CentaurConfig fpga{};
        switch (spec.emb) {
          case EmbBackendKind::CpuGather:
            _emb = std::make_unique<CpuGatherBackend>(
                CpuConfig{}, _hier, _dram, model);
            break;
          case EmbBackendKind::GpuGather:
            _emb = std::make_unique<GpuGatherBackend>(GpuConfig{},
                                                      model);
            break;
          case EmbBackendKind::EbStreamer:
            _emb = std::make_unique<EbGatherBackend>(fpga, _hier,
                                                     _dram, model);
            break;
        }
        switch (spec.mlp) {
          case MlpBackendKind::Cpu:
            _mlp = std::make_unique<CpuMlpBackend>(CpuConfig{}, _hier,
                                                   _dram, model);
            break;
          case MlpBackendKind::Gpu:
            _mlp = std::make_unique<GpuMlpBackend>(
                GpuConfig{}, model,
                spec.emb == EmbBackendKind::GpuGather);
            break;
          case MlpBackendKind::Fpga:
            if (spec.placement == MlpPlacement::Package) {
                auto *eb = dynamic_cast<EbGatherBackend *>(_emb.get());
                if (!eb)
                    fatal("replay: a Package-placed FPGA MLP stage "
                          "needs the EB-Streamer embedding backend");
                _mlp = std::make_unique<FpgaMlpBackend>(fpga, model,
                                                        eb->streamer());
            } else {
                _mlp = std::make_unique<FpgaMlpBackend>(
                    fpga, model, InterconnectHop{});
            }
            break;
        }
    }

    CacheTier *tier() { return _tier.get(); }
    EmbeddingBackend &emb() { return *_emb; }
    MlpBackend &mlp() { return *_mlp; }

  private:
    CacheHierarchy _hier;
    DramModel _dram;
    std::unique_ptr<CacheTier> _tier;
    std::unique_ptr<EmbeddingBackend> _emb;
    std::unique_ptr<MlpBackend> _mlp;
};

} // namespace

std::uint64_t
replayCalls(const TimedSystem &ts, SpanLog &log)
{
    // The decorator's own ReferenceModel has the inner system's
    // config, and the stage classes only read it.
    const SystemSpec spec = parseSpec(ts.spec());
    const ReferenceModel &model = ts.model();
    StageStack stack(spec, model, ts.tierConfig());
    const char *emb_name = embSpanName(spec.emb);
    const char *mlp_name = mlpSpanName(spec.mlp);

    std::uint64_t mismatches = 0;
    for (const CapturedCall &call : ts.calls()) {
        // The ComposedSystem::infer sequence, one span per stage.
        InferenceResult res;
        res.batch = call.batch.batch;
        res.start = call.start;
        CacheTier *tier = stack.tier();
        if (tier) {
            ScopedSpan span(log, "cachetier.annotate");
            const CacheTier::Access acc = tier->annotate(call.batch);
            res.cacheHits = acc.hits;
            res.cacheMisses = acc.misses;
        }
        EmbStageTiming staged;
        {
            ScopedSpan span(log, emb_name);
            staged = stack.emb().run(call.batch, call.start, res);
        }
        if (tier && res.cacheHits) {
            const Tick lookup = tier->lookupTicks(res.cacheHits);
            staged.embReady += lookup;
            res.phase[static_cast<std::size_t>(Phase::Emb)] += lookup;
        }
        {
            ScopedSpan span(log, mlp_name);
            res.end = stack.mlp().run(call.batch, staged, res);
        }
        if (tier)
            tier->recordSavedTicks(res.cacheSavedTicks);
        {
            ScopedSpan span(log, "dlrm.forward");
            const ForwardResult fwd = model.forward(call.batch);
            (void)fwd;
        }
        if (res.latency() != call.latencyTicks)
            ++mismatches;
    }
    return mismatches;
}

} // namespace centaur::perf
