#include "dlrm/mlp.hh"

#include <algorithm>
#include <cmath>

#include "dlrm/embedding_table.hh"
#include "sim/log.hh"

namespace centaur {

Mlp::Mlp(std::uint64_t mlp_id, std::vector<std::uint32_t> layer_dims,
         Activation hidden_act, Activation final_act)
    : _id(mlp_id), _dims(std::move(layer_dims)), _hiddenAct(hidden_act),
      _finalAct(final_act)
{
    if (_dims.size() < 2)
        fatal("an MLP needs at least input and output widths");
    for (auto d : _dims)
        if (d == 0)
            fatal("MLP layer widths must be nonzero");
}

namespace {

// Xavier-ish scale so activations neither vanish nor blow up.
float
weightScale(std::uint32_t in_dim)
{
    return 0.9f / std::sqrt(static_cast<float>(in_dim));
}

} // namespace

float
Mlp::weight(std::size_t layer, std::uint32_t out_idx,
            std::uint32_t in_idx) const
{
    return paramgen::hashedFloat(_id * 2 + 1, layer, out_idx, in_idx,
                                 weightScale(_dims[layer]));
}

float
Mlp::bias(std::size_t layer, std::uint32_t out_idx) const
{
    return paramgen::hashedFloat(_id * 2 + 2, layer, out_idx, 0, 0.01f);
}

std::vector<float>
Mlp::forward(const float *in) const
{
    return forwardBatch(in, 1);
}

std::vector<float>
Mlp::forwardBatch(const float *in, std::uint32_t batch) const
{
    // Activations are kept feature-major, x[i * batch + b], so each
    // synthesized weight is hashed once and applied to the whole
    // batch with a contiguous inner loop. Every sample's accumulator
    // still sees bias, then i = 0..in_dim-1 in order: the sums are
    // bit-identical to a per-sample loop over weight().
    const std::size_t n = batch;
    std::vector<float> cur(n * inputDim());
    for (std::size_t b = 0; b < n; ++b)
        for (std::uint32_t i = 0; i < inputDim(); ++i)
            cur[i * n + b] = in[b * inputDim() + i];

    std::vector<float> next;
    for (std::size_t layer = 0; layer + 1 < _dims.size(); ++layer) {
        const std::uint32_t in_dim = _dims[layer];
        const std::uint32_t out_dim = _dims[layer + 1];
        const bool last = layer + 2 == _dims.size();
        const Activation act = last ? _finalAct : _hiddenAct;
        const float scale = weightScale(in_dim);
        next.resize(n * out_dim);
        for (std::uint32_t o = 0; o < out_dim; ++o) {
            float *y = next.data() + o * n;
            std::fill(y, y + n, bias(layer, o));
            const std::uint64_t row = paramgen::prefix(_id * 2 + 1, layer, o);
            for (std::uint32_t i = 0; i < in_dim; ++i) {
                const float w =
                    paramgen::unitFloat(paramgen::hash(row ^ i)) * scale;
                const float *x = cur.data() + i * n;
                for (std::size_t b = 0; b < n; ++b)
                    y[b] += w * x[b];
            }
            if (act == Activation::Relu)
                for (std::size_t b = 0; b < n; ++b)
                    if (y[b] < 0.0f)
                        y[b] = 0.0f;
        }
        cur.swap(next);
    }

    std::vector<float> out(n * outputDim());
    for (std::size_t b = 0; b < n; ++b)
        for (std::uint32_t o = 0; o < outputDim(); ++o)
            out[b * outputDim() + o] = cur[o * n + b];
    return out;
}

std::uint64_t
Mlp::paramCount() const
{
    std::uint64_t params = 0;
    for (std::size_t i = 0; i + 1 < _dims.size(); ++i)
        params += static_cast<std::uint64_t>(_dims[i]) * _dims[i + 1] +
                  _dims[i + 1];
    return params;
}

std::uint64_t
Mlp::macsPerSample() const
{
    std::uint64_t macs = 0;
    for (std::size_t i = 0; i + 1 < _dims.size(); ++i)
        macs += static_cast<std::uint64_t>(_dims[i]) * _dims[i + 1];
    return macs;
}

float
referenceSigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace centaur
