#include "dlrm/reference_model.hh"

#include <algorithm>

#include "sim/log.hh"

namespace centaur {

namespace {

/** @p cfg, once its bottom stack is known to feed the interaction. */
const DlrmConfig &
checked(const DlrmConfig &cfg)
{
    if (cfg.bottomMlp.empty() || cfg.bottomMlp.back() != cfg.embeddingDim)
        fatal("bottom MLP must end at embeddingDim so its output can "
              "join the feature interaction");
    return cfg;
}

} // namespace

ReferenceModel::ReferenceModel(const DlrmConfig &cfg)
    : _cfg(checked(cfg)),
      _layout(MemoryLayout::buildFor(cfg.numTables, cfg.tableBytes())),
      _bottom(1, cfg.bottomLayerDims(), Activation::Relu, Activation::Relu),
      _top(2, cfg.topLayerDims(), Activation::Relu, Activation::None)
{
    _tables.reserve(cfg.numTables);
    for (std::uint32_t t = 0; t < cfg.numTables; ++t)
        _tables.emplace_back(t, cfg.rowsPerTable, cfg.embeddingDim,
                             _layout.tableBases[t]);
}

namespace {

/**
 * Feature interaction of one sample into @p out: vecs[0] (the bottom
 * output) passes through first (Figure 1's concatenation), then the
 * lower-triangle pairwise dot products of the @p n_vec vectors.
 */
void
interact(const float *const *vecs, std::size_t n_vec, std::uint32_t dim,
         float *out)
{
    out = std::copy(vecs[0], vecs[0] + dim, out);
    for (std::size_t i = 1; i < n_vec; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            float dot = 0.0f;
            for (std::uint32_t d = 0; d < dim; ++d)
                dot += vecs[i][d] * vecs[j][d];
            *out++ = dot;
        }
    }
}

} // namespace

std::vector<std::vector<float>>
ReferenceModel::reduceEmbeddings(const InferenceBatch &batch) const
{
    const std::uint32_t dim = _cfg.embeddingDim;
    std::vector<std::vector<float>> reduced(_cfg.numTables);
    for (std::uint32_t t = 0; t < _cfg.numTables; ++t) {
        const auto &idx = batch.indices[t];
        reduced[t].assign(
            static_cast<std::size_t>(batch.batch) * dim, 0.0f);
        for (std::uint32_t b = 0; b < batch.batch; ++b) {
            float *out = reduced[t].data() +
                         static_cast<std::size_t>(b) * dim;
            for (std::uint32_t j = 0; j < batch.lookupsPerTable; ++j)
                _tables[t].accumulateRow(
                    idx[static_cast<std::size_t>(b) *
                            batch.lookupsPerTable + j],
                    out);
        }
    }
    return reduced;
}

std::vector<float>
ReferenceModel::interactSample(
    const float *bottom_out,
    const std::vector<const float *> &reduced) const
{
    std::vector<const float *> vecs;
    vecs.reserve(reduced.size() + 1);
    vecs.push_back(bottom_out);
    vecs.insert(vecs.end(), reduced.begin(), reduced.end());
    std::vector<float> out(_cfg.embeddingDim +
                           vecs.size() * (vecs.size() - 1) / 2);
    interact(vecs.data(), vecs.size(), _cfg.embeddingDim, out.data());
    return out;
}

ForwardResult
ReferenceModel::forward(const InferenceBatch &batch) const
{
    ForwardResult res;
    const std::uint32_t dim = _cfg.embeddingDim;

    res.reduced = reduceEmbeddings(batch);
    res.bottomOut = _bottom.forwardBatch(batch.dense.data(),
                                          batch.batch);

    const std::uint32_t top_in_dim = _cfg.interactionDim();
    res.topIn.resize(static_cast<std::size_t>(batch.batch) *
                     top_in_dim);
    std::vector<const float *> vecs(_cfg.numTables + 1);
    for (std::uint32_t b = 0; b < batch.batch; ++b) {
        const std::size_t off = static_cast<std::size_t>(b) * dim;
        vecs[0] = res.bottomOut.data() + off;
        for (std::uint32_t t = 0; t < _cfg.numTables; ++t)
            vecs[t + 1] = res.reduced[t].data() + off;
        interact(vecs.data(), vecs.size(), dim,
                 res.topIn.data() +
                     static_cast<std::size_t>(b) * top_in_dim);
    }

    res.logits = _top.forwardBatch(res.topIn.data(), batch.batch);
    res.probabilities.resize(res.logits.size());
    for (std::size_t i = 0; i < res.logits.size(); ++i)
        res.probabilities[i] = referenceSigmoid(res.logits[i]);
    return res;
}

} // namespace centaur
