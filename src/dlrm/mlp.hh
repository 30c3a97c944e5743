/**
 * @file
 * Functional multi-layer perceptron with hash-synthesized parameters.
 * Serves as the numerical ground truth every design point's compute
 * path (CPU AVX model, GPU model, Centaur PE array) must match.
 */

#ifndef CENTAUR_DLRM_MLP_HH
#define CENTAUR_DLRM_MLP_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace centaur {

/** Activation applied after a layer. */
enum class Activation : std::uint8_t
{
    None,
    Relu,
};

/**
 * A dense MLP: y = act(W x + b) per layer. Parameters are synthesized
 * deterministically from (mlp_id, layer, i, j) hashes so CPU, GPU and
 * FPGA models all see identical weights with no loading.
 *
 * weight() and bias() are paramgen::hashedFloat(), the definition.
 * The constructor takes the parameter block of its (mlp_id, dims)
 * from a process-wide registry, which synthesizes it once, packed for
 * the kernel: each layer in panels of 8 outputs, where row i of a
 * panel holds those 8 outputs' weights for input i, then the biases
 * (layout and padding in mlp_kernel.hh). Every Mlp of that shape
 * shares the block; the registry holds at most 64 MiB of parameters,
 * and a shape that no longer fits gets a private block.
 * forwardBatch() broadcasts each sample's x[i] against a whole panel
 * row, one (sample, output) sum per vector lane, 8 lanes wide where
 * the CPU has AVX2 and 4 wide otherwise. It must stay bit-identical
 * to the naive loop acc = bias(l, o); acc += weight(l, o, i) * x[i]
 * for i in order.
 */
class Mlp
{
  public:
    /**
     * @param mlp_id stable identity for parameter synthesis
     * @param layer_dims widths including input, e.g. {13,128,64,32}
     * @param hidden_act activation on all but the final layer
     * @param final_act activation on the final layer
     */
    Mlp(std::uint64_t mlp_id, std::vector<std::uint32_t> layer_dims,
        Activation hidden_act = Activation::Relu,
        Activation final_act = Activation::Relu);

    /** Weight element W[layer][out_idx][in_idx]. */
    float weight(std::size_t layer, std::uint32_t out_idx,
                 std::uint32_t in_idx) const;

    /** Bias element b[layer][out_idx]. */
    float bias(std::size_t layer, std::uint32_t out_idx) const;

    /** Forward one sample: @p in has inputDim() floats. */
    std::vector<float> forward(const float *in) const;

    /** Forward a batch laid out row-major [batch x inputDim()]. */
    std::vector<float> forwardBatch(const float *in,
                                    std::uint32_t batch) const;

    std::uint32_t inputDim() const { return _dims.front(); }
    std::uint32_t outputDim() const { return _dims.back(); }
    std::size_t layers() const { return _dims.size() - 1; }
    const std::vector<std::uint32_t> &dims() const { return _dims; }
    Activation hiddenAct() const { return _hiddenAct; }
    Activation finalAct() const { return _finalAct; }

    /** fp32 parameter count (weights + biases). */
    std::uint64_t paramCount() const;

    /** Multiply-accumulates per forwarded sample. */
    std::uint64_t macsPerSample() const;

    /**
     * The packed parameter block: per layer, 8-output weight panels,
     * then the biases, zero-padded (layout in mlp_kernel.hh).
     */
    const float *params() const { return _params->data(); }

  private:
    std::uint64_t _id;
    std::vector<std::uint32_t> _dims;
    Activation _hiddenAct;
    Activation _finalAct;
    std::shared_ptr<const std::vector<float>> _params;
};

/** Numerically exact logistic sigmoid (reference). */
float referenceSigmoid(float x);

} // namespace centaur

#endif // CENTAUR_DLRM_MLP_HH
