#include "cpu/cpu_backend.hh"

#include <algorithm>

namespace centaur {

CpuGatherBackend::CpuGatherBackend(const CpuConfig &cpu,
                                   CacheHierarchy &hier,
                                   DramModel &dram,
                                   const ReferenceModel &model)
    : _cpu(cpu), _model(model), _gather(_cpu, hier, dram)
{
}

EmbStageTiming
CpuGatherBackend::run(const InferenceBatch &batch, Tick start,
                      InferenceResult &res)
{
    const GatherResult g = _gather.run(_model, batch, start);
    res.emb.instructions = g.instructions;
    res.emb.llcAccesses = g.llcAccesses;
    res.emb.llcMisses = g.llcMisses;

    // The gather's worker threads gang on the node's core pool and
    // its table traffic shares host DRAM bandwidth with every other
    // worker on the node; the stage completes when both grants do.
    // Cache-tier hits already dropped out of g.bytesGathered, so the
    // DRAM grant shrinks with the hit rate.
    Tick end = g.end;
    if (fabric()) {
        const Tick cores = charge(NodeResource::CpuCores, start,
                                  g.latency(), res, g.threadsUsed);
        const Tick dram =
            charge(NodeResource::HostDram, start,
                   fabric()->dramOccupancy(g.bytesGathered), res);
        end = std::max(cores, dram);
        // g.cachedLookups was counted once by the gather engine;
        // re-calling batch.cachedLookups() would re-scan the whole
        // per-lookup hit mask.
        res.cacheSavedTicks += fabric()->dramOccupancy(
            g.cachedLookups * _model.config().vectorBytes());
    }
    res.phase[static_cast<std::size_t>(Phase::Emb)] = end - start;
    res.effectiveEmbGBps = gbPerSec(g.bytesGathered, end - start);
    return {end, end};
}

CpuMlpBackend::CpuMlpBackend(const CpuConfig &cpu,
                             CacheHierarchy &hier, DramModel &dram,
                             const ReferenceModel &model)
    : _cpu(cpu), _model(model), _gemm(_cpu, hier, dram)
{
    // MLP weights are deployment-persistent and cache-warm
    // (Section III-B: MLP LLC miss rates stay below 20%).
    hier.warmRange(_model.layout().mlpWeightBase,
                   _model.config().mlpParamBytes());
}

Tick
CpuMlpBackend::runMlpStack(const std::vector<std::uint32_t> &dims,
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

Tick
CpuMlpBackend::run(const InferenceBatch &batch,
                   const EmbStageTiming &in, InferenceResult &res)
{
    const DlrmConfig &cfg = _model.config();
    Tick now = std::max(in.embReady, in.denseReady);

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

    // The GEMM roofline assumes the whole socket: book the dense
    // stage on the node's core pool so co-located workers' MLP
    // stacks serialize instead of each seeing an idle socket.
    if (fabric()) {
        const Tick stage_start =
            std::max(in.embReady, in.denseReady);
        const Tick end = charge(NodeResource::CpuCores, stage_start,
                                now - stage_start, res, _cpu.cores);
        res.phase[static_cast<std::size_t>(Phase::Mlp)] += end - now;
        now = end;
    }

    return now;
}

} // namespace centaur
