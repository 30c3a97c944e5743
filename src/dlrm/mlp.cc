#include "dlrm/mlp.hh"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "dlrm/embedding_table.hh"
#include "sim/log.hh"

namespace centaur {

namespace {

// GCC/Clang vector extensions: plain SSE2 on x86-64, no -march needed.
// A comparison yields all-ones (true) or zero lanes.
typedef float F32x4 __attribute__((vector_size(16)));
typedef std::int32_t I32x4 __attribute__((vector_size(16)));

using Params = std::shared_ptr<const std::vector<float>>;

// Xavier-ish scale so activations neither vanish nor blow up.
float
weightScale(std::uint32_t in_dim)
{
    return 0.9f / std::sqrt(static_cast<float>(in_dim));
}

/**
 * The parameter block of @p mlp: per layer, out x in weights
 * row-major, then out biases. Weights hoist the (layer, out) prefix of
 * weight()'s hash chain; the values are the same bits.
 */
std::vector<float>
synthesize(const Mlp &mlp, std::uint64_t id)
{
    std::vector<float> block;
    block.reserve(mlp.paramCount());
    const std::vector<std::uint32_t> &dims = mlp.dims();
    for (std::size_t layer = 0; layer + 1 < dims.size(); ++layer) {
        const float scale = weightScale(dims[layer]);
        for (std::uint32_t o = 0; o < dims[layer + 1]; ++o) {
            const std::uint64_t row = paramgen::prefix(id * 2 + 1, layer, o);
            for (std::uint32_t i = 0; i < dims[layer]; ++i)
                block.push_back(
                    paramgen::unitFloat(paramgen::hash(row ^ i)) * scale);
        }
        for (std::uint32_t o = 0; o < dims[layer + 1]; ++o)
            block.push_back(mlp.bias(layer, o));
    }
    return block;
}

/**
 * Parameter blocks shared by every Mlp of one (id, dims). Sweeps and
 * serving runs build a ReferenceModel per system, and each would
 * otherwise synthesize the same weights again. Blocks live as long as
 * the process, at most kMaxFloats in all; a shape that does not fit
 * gets a private block, built outside the lock.
 */
class ParamRegistry
{
  public:
    static constexpr std::uint64_t kMaxFloats =
        (std::uint64_t{64} << 20) / sizeof(float);

    Params
    get(const Mlp &mlp, std::uint64_t id)
    {
        const std::uint64_t floats = mlp.paramCount();
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            auto key = std::make_pair(id, mlp.dims());
            const auto it = _blocks.find(key);
            if (it != _blocks.end())
                return it->second;
            if (_floats + floats <= kMaxFloats) {
                Params block = std::make_shared<const std::vector<float>>(
                    synthesize(mlp, id));
                _blocks.emplace(std::move(key), block);
                _floats += floats;
                return block;
            }
        }
        return std::make_shared<const std::vector<float>>(
            synthesize(mlp, id));
    }

  private:
    std::mutex _mutex;
    std::map<std::pair<std::uint64_t, std::vector<std::uint32_t>>, Params>
        _blocks;
    std::uint64_t _floats = 0;
};

/** Never destroyed, like StorePool in cache.cc: blocks stay reachable. */
ParamRegistry &
paramRegistry()
{
    static ParamRegistry *const registry = new ParamRegistry;
    return *registry;
}

F32x4
splat(float v)
{
    return F32x4{v, v, v, v};
}

/** Lanes below zero become +0.0f, as `if (y < 0) y = 0` per lane. */
F32x4
relu(F32x4 y)
{
    return (F32x4)((I32x4)y & ~(y < F32x4{}));
}

} // namespace

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
    _params = paramRegistry().get(*this, _id);
}

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
    // Samples go in groups of four, one per vector lane, with
    // activations at x[group * width + i]; padding lanes are zero and
    // dropped at the end. Each block of four outputs keeps one
    // accumulator vector per output over a group. Every lane starts at
    // its bias and adds w[i] * x[i] for i ascending, a separate
    // multiply and add, so each sum is bit-identical to the naive loop
    // over weight() and bias().
    const std::size_t groups = (static_cast<std::size_t>(batch) + 3) / 4;
    std::vector<F32x4> cur(groups * inputDim(), F32x4{});
    for (std::size_t b = 0; b < batch; ++b)
        for (std::uint32_t i = 0; i < inputDim(); ++i)
            cur[b / 4 * inputDim() + i][b % 4] = in[b * inputDim() + i];

    std::vector<F32x4> next;
    const float *w = _params->data();
    for (std::size_t layer = 0; layer + 1 < _dims.size(); ++layer) {
        const std::size_t in_dim = _dims[layer];
        const std::size_t out_dim = _dims[layer + 1];
        const bool last = layer + 2 == _dims.size();
        const bool rl = (last ? _finalAct : _hiddenAct) == Activation::Relu;
        const float *biases = w + out_dim * in_dim;
        next.resize(groups * out_dim);
        std::size_t o = 0;
        for (; o + 4 <= out_dim; o += 4) {
            const float *w0 = w + o * in_dim;
            const float *w1 = w0 + in_dim;
            const float *w2 = w1 + in_dim;
            const float *w3 = w2 + in_dim;
            for (std::size_t g = 0; g < groups; ++g) {
                const F32x4 *x = cur.data() + g * in_dim;
                F32x4 a0 = splat(biases[o]);
                F32x4 a1 = splat(biases[o + 1]);
                F32x4 a2 = splat(biases[o + 2]);
                F32x4 a3 = splat(biases[o + 3]);
                for (std::size_t i = 0; i < in_dim; ++i) {
                    a0 += splat(w0[i]) * x[i];
                    a1 += splat(w1[i]) * x[i];
                    a2 += splat(w2[i]) * x[i];
                    a3 += splat(w3[i]) * x[i];
                }
                F32x4 *y = next.data() + g * out_dim + o;
                y[0] = rl ? relu(a0) : a0;
                y[1] = rl ? relu(a1) : a1;
                y[2] = rl ? relu(a2) : a2;
                y[3] = rl ? relu(a3) : a3;
            }
        }
        for (; o < out_dim; ++o) {
            const float *w0 = w + o * in_dim;
            for (std::size_t g = 0; g < groups; ++g) {
                const F32x4 *x = cur.data() + g * in_dim;
                F32x4 a0 = splat(biases[o]);
                for (std::size_t i = 0; i < in_dim; ++i)
                    a0 += splat(w0[i]) * x[i];
                next[g * out_dim + o] = rl ? relu(a0) : a0;
            }
        }
        w = biases + out_dim;
        cur.swap(next);
    }

    std::vector<float> out(static_cast<std::size_t>(batch) * outputDim());
    for (std::size_t b = 0; b < batch; ++b)
        for (std::uint32_t o = 0; o < outputDim(); ++o)
            out[b * outputDim() + o] = cur[b / 4 * outputDim() + o][b % 4];
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
