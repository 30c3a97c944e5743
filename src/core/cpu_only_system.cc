#include "core/cpu_only_system.hh"

#include <algorithm>

namespace centaur {

CpuOnlySystem::CpuOnlySystem(const DlrmConfig &cfg,
                             const CpuConfig &cpu,
                             const DramConfig &dram)
    : System(cfg), _cpu(cpu), _hier(broadwellHierarchyConfig()),
      _dram(dram), _gather(_cpu, _hier, _dram),
      _gemm(_cpu, _hier, _dram)
{
    // MLP weights are deployment-persistent and cache-warm
    // (Section III-B: MLP LLC miss rates stay below 20%).
    _hier.warmRange(_model.layout().mlpWeightBase,
                    cfg.mlpParamBytes());
}

Tick
CpuOnlySystem::runMlpStack(const std::vector<std::uint32_t> &dims,
                           std::uint32_t batch, Addr in_base,
                           Addr w_base, Tick start, InferenceResult &r)
{
    Tick now = start;
    Addr w_cursor = w_base;
    Addr act_cursor = in_base;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        const auto g = _gemm.run(batch, dims[l], dims[l + 1],
                                 act_cursor, w_cursor,
                                 _model.layout().outputBase, now);
        now = g.end;
        r.phase[static_cast<std::size_t>(Phase::Mlp)] += g.latency();
        r.mlp.instructions += g.instructions;
        r.mlp.llcAccesses += g.llcAccesses;
        r.mlp.llcMisses += g.llcMisses;
        w_cursor += 4ULL * (static_cast<std::uint64_t>(dims[l]) *
                                dims[l + 1] + dims[l + 1]);
        act_cursor = _model.layout().outputBase;
    }
    return now;
}

InferenceResult
CpuOnlySystem::infer(const InferenceBatch &batch)
{
    const DlrmConfig &cfg = config();
    InferenceResult res;
    res.design = design();
    res.batch = batch.batch;
    res.start = _now;

    // ----- embedding layers (EMB) -----
    const GatherResult g = _gather.run(_model, batch, _now);
    res.phase[static_cast<std::size_t>(Phase::Emb)] = g.latency();
    res.emb.instructions = g.instructions;
    res.emb.llcAccesses = g.llcAccesses;
    res.emb.llcMisses = g.llcMisses;
    res.effectiveEmbGBps = g.effectiveGBps();
    Tick now = g.end;

    // ----- bottom MLP (MLP) -----
    now = runMlpStack(cfg.bottomLayerDims(), batch.batch,
                      _model.layout().denseFeatureBase,
                      _model.layout().mlpWeightBase, now, res);

    // ----- feature interaction (Other): batched R x R^T GEMM -----
    const std::uint32_t n_vec = cfg.numTables + 1;
    const auto inter = _gemm.run(batch.batch * n_vec,
                                 cfg.embeddingDim, n_vec,
                                 _model.layout().outputBase,
                                 _model.layout().outputBase,
                                 _model.layout().outputBase, now);
    now = inter.end;
    res.phase[static_cast<std::size_t>(Phase::Other)] +=
        inter.latency();

    // Concatenating 50+ reduced embedding tensors into the
    // interaction input is real framework work (torch.cat).
    const std::uint64_t concat_bytes =
        static_cast<std::uint64_t>(batch.batch) * n_vec *
        cfg.vectorBytes();
    const Tick concat = ticksFromUs(_cpu.dispatchUs) +
                        serializationTicks(concat_bytes, 40.0);
    now += concat;
    res.phase[static_cast<std::size_t>(Phase::Other)] += concat;

    // ----- top MLP (MLP) -----
    const std::uint64_t bottom_params = _model.bottomMlp().paramCount();
    now = runMlpStack(cfg.topLayerDims(), batch.batch,
                      _model.layout().outputBase,
                      _model.layout().mlpWeightBase +
                          bottom_params * 4,
                      now, res);

    // ----- sigmoid + framework glue (Other) -----
    const Tick sigmoid = ticksFromUs(_cpu.dispatchUs) +
                         batch.batch * ticksFromNs(5.0);
    now += sigmoid;
    res.phase[static_cast<std::size_t>(Phase::Other)] += sigmoid;

    res.end = now;
    _now = now;

    // ----- functional result -----
    const ForwardResult fwd = _model.forward(batch);
    res.probabilities = fwd.probabilities;

    finalize(res);
    return res;
}

} // namespace centaur
