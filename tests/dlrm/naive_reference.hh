/**
 * @file
 * Naive functional DLRM loops for the bit-exactness tests: every
 * value comes from one Mlp::weight(), Mlp::bias() or
 * VirtualEmbeddingTable::element() call, i.e. from
 * paramgen::hashedFloat(), the definition the optimised forward pass
 * must reproduce bit for bit.
 */

#ifndef CENTAUR_TESTS_DLRM_NAIVE_REFERENCE_HH
#define CENTAUR_TESTS_DLRM_NAIVE_REFERENCE_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "dlrm/reference_model.hh"

namespace centaur {
namespace naive {

/** Byte-for-byte equality of two float vectors. */
inline bool
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Per sample, per output: acc = bias, then acc += w * x[i] in order. */
inline std::vector<float>
mlpForward(const Mlp &mlp, Activation hidden_act, Activation final_act,
           const float *in, std::uint32_t batch)
{
    std::vector<float> out;
    for (std::uint32_t b = 0; b < batch; ++b) {
        std::vector<float> x(in + b * mlp.inputDim(),
                             in + (b + 1) * mlp.inputDim());
        for (std::size_t l = 0; l < mlp.layers(); ++l) {
            const Activation act =
                l + 1 == mlp.layers() ? final_act : hidden_act;
            std::vector<float> y(mlp.dims()[l + 1]);
            for (std::uint32_t o = 0; o < y.size(); ++o) {
                float acc = mlp.bias(l, o);
                for (std::uint32_t i = 0; i < x.size(); ++i)
                    acc += mlp.weight(l, o, i) * x[i];
                if (act == Activation::Relu && acc < 0.0f)
                    acc = 0.0f;
                y[o] = acc;
            }
            x = std::move(y);
        }
        out.insert(out.end(), x.begin(), x.end());
    }
    return out;
}

/** The golden model's forward pass, one element() / weight() at a time. */
inline ForwardResult
dlrmForward(const ReferenceModel &model, const InferenceBatch &batch)
{
    const DlrmConfig &cfg = model.config();
    const std::uint32_t dim = cfg.embeddingDim;
    ForwardResult res;
    res.reduced.assign(cfg.numTables,
                       std::vector<float>(batch.batch * dim, 0.0f));
    for (std::uint32_t t = 0; t < cfg.numTables; ++t)
        for (std::uint32_t b = 0; b < batch.batch; ++b)
            for (std::uint32_t j = 0; j < batch.lookupsPerTable; ++j)
                for (std::uint32_t d = 0; d < dim; ++d)
                    res.reduced[t][b * dim + d] += model.table(t).element(
                        batch.indices[t][b * batch.lookupsPerTable + j],
                        d);

    res.bottomOut = mlpForward(model.bottomMlp(), Activation::Relu,
                               Activation::Relu, batch.dense.data(),
                               batch.batch);
    for (std::uint32_t b = 0; b < batch.batch; ++b) {
        std::vector<const float *> vecs{res.bottomOut.data() + b * dim};
        for (std::uint32_t t = 0; t < cfg.numTables; ++t)
            vecs.push_back(res.reduced[t].data() + b * dim);
        res.topIn.insert(res.topIn.end(), vecs[0], vecs[0] + dim);
        for (std::size_t i = 1; i < vecs.size(); ++i)
            for (std::size_t j = 0; j < i; ++j) {
                float dot = 0.0f;
                for (std::uint32_t d = 0; d < dim; ++d)
                    dot += vecs[i][d] * vecs[j][d];
                res.topIn.push_back(dot);
            }
    }
    res.logits = mlpForward(model.topMlp(), Activation::Relu,
                            Activation::None, res.topIn.data(),
                            batch.batch);
    for (float logit : res.logits)
        res.probabilities.push_back(referenceSigmoid(logit));
    return res;
}

} // namespace naive
} // namespace centaur

#endif // CENTAUR_TESTS_DLRM_NAIVE_REFERENCE_HH
