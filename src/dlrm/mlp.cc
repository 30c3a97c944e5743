#include "dlrm/mlp.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "dlrm/embedding_table.hh"
#include "dlrm/mlp_kernel.hh"
#include "sim/log.hh"

namespace centaur {

namespace {

using mlp_kernel::kPanel;
using Params = std::shared_ptr<const std::vector<float>>;

// GCC/Clang vector extensions. F32x8 is only ever used inside a
// function compiled for AVX2.
typedef float F32x4 __attribute__((vector_size(16)));
typedef float F32x8 __attribute__((vector_size(32)));

// Xavier-ish scale so activations neither vanish nor blow up.
float
weightScale(std::uint32_t in_dim)
{
    return 0.9f / std::sqrt(static_cast<float>(in_dim));
}

/**
 * The packed parameter block of @p mlp (see mlp_kernel.hh). Weights
 * hoist the (layer, out) prefix of weight()'s hash chain; the values
 * are the same bits. Padding lanes stay zero.
 */
std::vector<float>
synthesize(const Mlp &mlp, std::uint64_t id)
{
    const std::vector<std::uint32_t> &dims = mlp.dims();
    std::vector<float> block(mlp_kernel::blockFloats(dims));
    float *w = block.data();
    for (std::size_t layer = 0; layer + 1 < dims.size(); ++layer) {
        const std::size_t in_dim = dims[layer];
        const std::uint32_t out_dim = dims[layer + 1];
        const float scale = weightScale(dims[layer]);
        for (std::uint32_t o = 0; o < out_dim; ++o) {
            const std::uint64_t row = paramgen::prefix(id * 2 + 1, layer, o);
            float *lane = w + o / kPanel * in_dim * kPanel + o % kPanel;
            for (std::uint32_t i = 0; i < in_dim; ++i)
                lane[i * kPanel] =
                    paramgen::unitFloat(paramgen::hash(row ^ i)) * scale;
        }
        float *biases = w + mlp_kernel::panels(out_dim) * kPanel * in_dim;
        for (std::uint32_t o = 0; o < out_dim; ++o)
            biases[o] = mlp.bias(layer, o);
        w += mlp_kernel::layerFloats(in_dim, out_dim);
    }
    return block;
}

/** Orders (id, dims) keys, looked up by a key holding a dims reference. */
struct ShapeLess
{
    using is_transparent = void;

    template <typename A, typename B>
    bool
    operator()(const A &a, const B &b) const
    {
        return std::tie(a.first, a.second) < std::tie(b.first, b.second);
    }
};

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
        const std::uint64_t floats = mlp_kernel::blockFloats(mlp.dims());
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            const auto it = _blocks.find(ShapeRef(id, mlp.dims()));
            if (it != _blocks.end())
                return it->second;
            if (_floats + floats <= kMaxFloats) {
                Params block = std::make_shared<const std::vector<float>>(
                    synthesize(mlp, id));
                _blocks.emplace(Shape(id, mlp.dims()), block);
                _floats += floats;
                return block;
            }
        }
        return std::make_shared<const std::vector<float>>(
            synthesize(mlp, id));
    }

  private:
    using Shape = std::pair<std::uint64_t, std::vector<std::uint32_t>>;
    using ShapeRef =
        std::pair<std::uint64_t, const std::vector<std::uint32_t> &>;

    std::mutex _mutex;
    std::map<Shape, Params, ShapeLess> _blocks;
    std::uint64_t _floats = 0;
};

/** Never destroyed, like StorePool in cache.cc: blocks stay reachable. */
ParamRegistry &
paramRegistry()
{
    static ParamRegistry *const registry = new ParamRegistry;
    return *registry;
}

/**
 * kVecs vectors of V (kVecs x its width outputs, from output @p o0, a
 * multiple of kPanel) against kSamples samples: one accumulator vector
 * per (sample, vector), each lane one (sample, output) sum in the
 * naive loop's order. Eight accumulators cover the add latency.
 */
template <typename V, std::size_t kVecs, std::size_t kSamples>
[[gnu::always_inline]] inline void
tile(const mlp_kernel::Layer &layer, std::size_t o0, const float *x,
     std::size_t x_stride, float *y, std::size_t y_stride)
{
    constexpr std::size_t kWidth = sizeof(V) / sizeof(float);
    const std::size_t in_dim = layer.inDim;
    const float *biases = layer.w + y_stride * in_dim;
    const float *rows[kVecs];
    V acc[kSamples][kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
        const std::size_t o = o0 + v * kWidth;
        rows[v] = layer.w + o / kPanel * in_dim * kPanel + o % kPanel;
        V b;
        std::memcpy(&b, biases + o, sizeof b);
        for (std::size_t s = 0; s < kSamples; ++s)
            acc[s][v] = b;
    }
    for (std::size_t i = 0; i < in_dim; ++i)
        for (std::size_t v = 0; v < kVecs; ++v) {
            V w;
            std::memcpy(&w, rows[v] + i * kPanel, sizeof w);
            for (std::size_t s = 0; s < kSamples; ++s)
                acc[s][v] += w * x[s * x_stride + i];
        }
    for (std::size_t s = 0; s < kSamples; ++s)
        for (std::size_t v = 0; v < kVecs; ++v) {
            // As `if (y < 0) y = 0` per lane: -0.0f and NaN pass.
            const V a = acc[s][v];
            const V out = layer.relu ? (a < V{} ? V{} : a) : a;
            std::memcpy(y + s * y_stride + o0 + v * kWidth, &out,
                        sizeof out);
        }
}

/** Outputs o0.. of every sample: samples in fours, then the rest. */
template <typename V, std::size_t kVecs>
[[gnu::always_inline]] inline void
outputs(const mlp_kernel::Layer &layer, std::size_t o0, const float *x,
        std::size_t x_stride, std::size_t batch, float *y,
        std::size_t y_stride)
{
    std::size_t b = 0;
    for (; b + 4 <= batch; b += 4)
        tile<V, kVecs, 4>(layer, o0, x + b * x_stride, x_stride,
                          y + b * y_stride, y_stride);
    x += b * x_stride;
    y += b * y_stride;
    switch (batch - b) {
      case 3:
        tile<V, kVecs, 3>(layer, o0, x, x_stride, y, y_stride);
        break;
      case 2:
        tile<V, kVecs, 2>(layer, o0, x, x_stride, y, y_stride);
        break;
      case 1:
        tile<V, kVecs, 1>(layer, o0, x, x_stride, y, y_stride);
        break;
      default:
        break;
    }
}

/**
 * The layer kernel over V-wide vectors, two vectors of outputs at a
 * time (one panel in SSE2 halves, two panels in AVX2), each streamed
 * once past every sample.
 */
template <typename V>
[[gnu::always_inline]] inline void
layerPanels(const mlp_kernel::Layer &layer, const float *x,
            std::size_t x_stride, std::size_t batch, float *y)
{
    constexpr std::size_t kStep = 2 * sizeof(V) / sizeof(float);
    const std::size_t y_stride = mlp_kernel::panels(layer.outDim) * kPanel;
    std::size_t o = 0;
    for (; o + kStep <= y_stride; o += kStep)
        outputs<V, 2>(layer, o, x, x_stride, batch, y, y_stride);
    if (o < y_stride)
        outputs<V, 1>(layer, o, x, x_stride, batch, y, y_stride);
}

} // namespace

namespace mlp_kernel {

void
layer4(const Layer &layer, const float *x, std::size_t x_stride,
       std::size_t batch, float *y)
{
    layerPanels<F32x4>(layer, x, x_stride, batch, y);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
layer8(const Layer &layer, const float *x, std::size_t x_stride,
       std::size_t batch, float *y)
{
    layerPanels<F32x8>(layer, x, x_stride, batch, y);
}
#endif

bool
hostHasAvx2()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

LayerKernel
hostKernel()
{
    static const LayerKernel kernel = [] {
#if defined(__x86_64__)
        if (hostHasAvx2())
            return &layer8;
#endif
        return &layer4;
    }();
    return kernel;
}

std::vector<float>
forwardBatch(const Mlp &mlp, LayerKernel kernel, const float *in,
             std::uint32_t batch)
{
    // Activations between layers keep every padding lane, so each
    // sample's row is panels(width) * kPanel floats; the next layer
    // reads only its first inDim.
    const std::vector<std::uint32_t> &dims = mlp.dims();
    std::size_t widest = 0;
    for (std::size_t l = 1; l < dims.size(); ++l)
        widest = std::max(widest, panels(dims[l]) * kPanel);
    const std::size_t rows = static_cast<std::size_t>(batch) * widest;
    std::vector<float> scratch(2 * rows);
    float *y = scratch.data();
    float *spare = y + rows;

    const float *x = in;
    std::size_t x_stride = dims.front();
    const float *w = mlp.params();
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
        const Activation act =
            l + 2 == dims.size() ? mlp.finalAct() : mlp.hiddenAct();
        const Layer layer{w, dims[l], dims[l + 1], act == Activation::Relu};
        kernel(layer, x, x_stride, batch, y);
        w += layerFloats(dims[l], dims[l + 1]);
        x = y;
        x_stride = panels(dims[l + 1]) * kPanel;
        std::swap(y, spare);
    }

    const std::size_t out_dim = mlp.outputDim();
    std::vector<float> out(static_cast<std::size_t>(batch) * out_dim);
    for (std::size_t b = 0; b < batch; ++b)
        std::memcpy(out.data() + b * out_dim, x + b * x_stride,
                    out_dim * sizeof(float));
    return out;
}

} // namespace mlp_kernel

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
    return mlp_kernel::forwardBatch(*this, mlp_kernel::hostKernel(), in,
                                    batch);
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
