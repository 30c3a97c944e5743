/**
 * @file
 * Internal to the functional MLP (mlp.cc) and its tests: the packed
 * parameter layout and the layer kernels that run over it. Nothing
 * outside src/dlrm/mlp.cc and tests/dlrm/ includes this header.
 *
 * A layer of `out x in` weights is stored as panels(out) panels of
 * kPanel outputs each. Row i of panel k holds the kPanel floats
 * w[kPanel*k .. kPanel*k + kPanel-1][i], so one vector load reads a
 * whole panel row; outputs past `out` are zero. The panels are
 * followed by the out biases, zero-padded to panels(out) * kPanel.
 * Layers follow one another in order.
 */

#ifndef CENTAUR_DLRM_MLP_KERNEL_HH
#define CENTAUR_DLRM_MLP_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dlrm/mlp.hh"

namespace centaur {
namespace mlp_kernel {

/** Outputs per weight panel: one AVX2 vector or two SSE2 vectors. */
constexpr std::size_t kPanel = 8;

/** Panels of a layer with @p out_dim outputs. */
constexpr std::size_t
panels(std::size_t out_dim)
{
    return (out_dim + kPanel - 1) / kPanel;
}

/** Floats of one packed layer: its panels, then its padded biases. */
constexpr std::size_t
layerFloats(std::size_t in_dim, std::size_t out_dim)
{
    return panels(out_dim) * kPanel * (in_dim + 1);
}

/** Floats of the packed block of an MLP with widths @p dims. */
inline std::size_t
blockFloats(const std::vector<std::uint32_t> &dims)
{
    std::size_t floats = 0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        floats += layerFloats(dims[l], dims[l + 1]);
    return floats;
}

/** One packed layer and its activation. */
struct Layer
{
    /** The layer's panels, followed by its padded biases. */
    const float *w;
    std::size_t inDim;
    std::size_t outDim;
    bool relu;
};

/**
 * Runs @p layer over @p batch samples: sample b reads its inputs at
 * x[b * x_stride + i] for i < inDim and writes all panels(outDim) *
 * kPanel lanes at y[b * panels(outDim) * kPanel + o], padding lanes
 * included. Each lane starts at its bias and adds w * x for i
 * ascending, a separate multiply and add, then applies the ReLU, so
 * every real lane is bit-identical to the naive loop.
 */
using LayerKernel = void (*)(const Layer &layer, const float *x,
                             std::size_t x_stride, std::size_t batch,
                             float *y);

/** 4-wide vectors (SSE2 on x86-64); each panel row is two loads. */
void layer4(const Layer &layer, const float *x, std::size_t x_stride,
            std::size_t batch, float *y);

#if defined(__x86_64__)
/** 8-wide AVX2 vectors, one load per panel row; needs hostHasAvx2(). */
void layer8(const Layer &layer, const float *x, std::size_t x_stride,
            std::size_t batch, float *y);
#endif

/** Whether this CPU and OS run AVX2 code (false off x86-64). */
bool hostHasAvx2();

/** layer8 where hostHasAvx2(), else layer4; chosen once per process. */
LayerKernel hostKernel();

/** Mlp::forwardBatch() through @p kernel. */
std::vector<float> forwardBatch(const Mlp &mlp, LayerKernel kernel,
                                const float *in, std::uint32_t batch);

} // namespace mlp_kernel
} // namespace centaur

#endif // CENTAUR_DLRM_MLP_KERNEL_HH
