#include "core/system_builder.hh"

#include <optional>

#include "cache/hierarchy.hh"
#include "cpu/cpu_backend.hh"
#include "fpga/fpga_backend.hh"
#include "gpu/gpu_backend.hh"
#include "sim/log.hh"

namespace centaur {

namespace {

/**
 * A System assembled from one embedding backend and one MLP backend
 * over shared platform state. Stage backends accumulate phase ticks
 * and statistics straight into the InferenceResult; this class
 * stitches the stage timings together and owns identity (spec,
 * anchor design point) and power.
 */
class ComposedSystem : public System
{
  public:
    ComposedSystem(const DlrmConfig &model, const SystemSpec &spec,
                   const PowerConfig &power, const CpuConfig &cpu,
                   const GpuConfig &gpu, const CentaurConfig &fpga,
                   const DramConfig &dram, const InterconnectHop &hop,
                   Fabric *fabric, CacheTier *cache_tier)
        : System(model, power), _spec(spec), _specName(specName(spec)),
          _anchor(anchorDesignPoint(spec)),
          _watts(specWatts(spec, power))
    {
        // Only host-side stages read the CPU cache hierarchy and the
        // DRAM model; a GPU-gathering system with an accelerator MLP
        // never builds them (nor the 3.7 MB LLC tag store).
        if (spec.emb == EmbBackendKind::CpuGather ||
            spec.emb == EmbBackendKind::EbStreamer ||
            spec.mlp == MlpBackendKind::Cpu) {
            _hier.emplace(broadwellHierarchyConfig());
            _dram.emplace(dram);
        }
        // Hot-row cache tier: an externally shared (node-level) tier
        // wins; otherwise a cache-enabled spec gets a private one.
        if (cache_tier) {
            _cache = cache_tier;
        } else if (spec.cache.enabled()) {
            _ownedCache = std::make_unique<CacheTier>(
                spec.cache, model.vectorBytes());
            _cache = _ownedCache.get();
        }
        switch (spec.emb) {
          case EmbBackendKind::CpuGather:
            _emb = std::make_unique<CpuGatherBackend>(cpu, *_hier,
                                                      *_dram, _model);
            break;
          case EmbBackendKind::GpuGather:
            _emb = std::make_unique<GpuGatherBackend>(gpu, _model);
            break;
          case EmbBackendKind::EbStreamer:
            _emb = std::make_unique<EbGatherBackend>(fpga, *_hier,
                                                     *_dram, _model);
            break;
        }
        switch (spec.mlp) {
          case MlpBackendKind::Cpu:
            _mlp = std::make_unique<CpuMlpBackend>(cpu, *_hier, *_dram,
                                                   _model);
            break;
          case MlpBackendKind::Gpu:
            _mlp = std::make_unique<GpuMlpBackend>(
                gpu, _model,
                spec.emb == EmbBackendKind::GpuGather);
            break;
          case MlpBackendKind::Fpga:
            if (spec.placement == MlpPlacement::Package) {
                auto *eb =
                    dynamic_cast<EbGatherBackend *>(_emb.get());
                if (!eb)
                    fatal("a Package-placed FPGA MLP stage needs the "
                          "EB-Streamer embedding backend (spec ",
                          _specName, ")");
                _mlp = std::make_unique<FpgaMlpBackend>(
                    fpga, _model, eb->streamer());
            } else {
                _mlp = std::make_unique<FpgaMlpBackend>(fpga, _model,
                                                        hop);
            }
            break;
        }
        _emb->setFabric(fabric);
        _mlp->setFabric(fabric);
    }

    DesignPoint design() const override { return _anchor; }
    std::string spec() const override { return _specName; }
    const SystemSpec &systemSpec() const { return _spec; }
    const CacheTier *cacheTier() const override { return _cache; }

    InferenceResult
    infer(const InferenceBatch &batch) override
    {
        InferenceResult res;
        res.design = _anchor;
        res.spec = _specName;
        res.batch = batch.batch;
        res.start = _now;

        // Annotate the batch against the hot-row tier first: the
        // stage backends then skip the DRAM/PCIe charge for every
        // masked lookup and shrink their gathered-byte totals.
        if (_cache) {
            const CacheTier::Access acc = _cache->annotate(batch);
            res.cacheHits = acc.hits;
            res.cacheMisses = acc.misses;
        }

        EmbStageTiming staged = _emb->run(batch, _now, res);
        if (_cache && res.cacheHits) {
            // Hits are not free: the SRAM/HBM-class lookup cost
            // lands on the embedding phase's critical path.
            const Tick lookup = _cache->lookupTicks(res.cacheHits);
            staged.embReady += lookup;
            res.phase[static_cast<std::size_t>(Phase::Emb)] +=
                lookup;
        }
        const Tick end = _mlp->run(batch, staged, res);
        res.end = end;
        _now = end;
        if (_cache)
            _cache->recordSavedTicks(res.cacheSavedTicks);

        // ----- functional result (stage-appropriate sigmoid) -----
        const ForwardResult fwd = _model.forward(batch);
        _mlp->probabilities(fwd, res);

        res.powerWatts = _watts;
        res.energyJoules = _watts * secFromTicks(res.latency());
        return res;
    }

  private:
    SystemSpec _spec;
    std::string _specName;
    DesignPoint _anchor;
    double _watts;
    std::optional<CacheHierarchy> _hier;
    std::optional<DramModel> _dram;
    std::unique_ptr<CacheTier> _ownedCache;
    CacheTier *_cache = nullptr;
    std::unique_ptr<EmbeddingBackend> _emb;
    std::unique_ptr<MlpBackend> _mlp;
};

} // namespace

SystemBuilder &
SystemBuilder::spec(const std::string &name)
{
    _spec = parseSpec(name);
    return *this;
}

SystemBuilder &
SystemBuilder::spec(const SystemSpec &s)
{
    _spec = s;
    return *this;
}

SystemBuilder &
SystemBuilder::model(const DlrmConfig &cfg)
{
    _model = cfg;
    return *this;
}

SystemBuilder &
SystemBuilder::power(const PowerConfig &cfg)
{
    _power = cfg;
    return *this;
}

SystemBuilder &
SystemBuilder::cpu(const CpuConfig &cfg)
{
    _cpu = cfg;
    return *this;
}

SystemBuilder &
SystemBuilder::gpu(const GpuConfig &cfg)
{
    _gpu = cfg;
    return *this;
}

SystemBuilder &
SystemBuilder::fpga(const CentaurConfig &cfg)
{
    _fpga = cfg;
    return *this;
}

SystemBuilder &
SystemBuilder::dram(const DramConfig &cfg)
{
    _dram = cfg;
    return *this;
}

SystemBuilder &
SystemBuilder::hop(const InterconnectHop &h)
{
    _hop = h;
    return *this;
}

SystemBuilder &
SystemBuilder::fabric(Fabric *f)
{
    _fabric = f;
    return *this;
}

SystemBuilder &
SystemBuilder::cacheTier(CacheTier *tier)
{
    _cacheTier = tier;
    return *this;
}

std::unique_ptr<System>
SystemBuilder::build() const
{
    return std::make_unique<ComposedSystem>(_model, _spec, _power,
                                            _cpu, _gpu, _fpga, _dram,
                                            _hop, _fabric,
                                            _cacheTier);
}

std::unique_ptr<System>
makeSystem(const std::string &spec, const DlrmConfig &cfg)
{
    return SystemBuilder().spec(spec).model(cfg).build();
}

std::unique_ptr<System>
makeSystem(const std::string &spec, const DlrmConfig &cfg,
           Fabric *fabric)
{
    return SystemBuilder().spec(spec).model(cfg).fabric(fabric).build();
}

} // namespace centaur
