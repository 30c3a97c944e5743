/**
 * @file
 * Functional DLRM forward pass (the "golden model").
 *
 * Mirrors Figure 1/3 of the paper: bottom MLP over dense features,
 * per-table embedding gather + sum reduction (SparseLengthsSum),
 * pairwise dot-product feature interaction, top MLP, sigmoid. All
 * design points reuse these numerics; only their timing differs.
 */

#ifndef CENTAUR_DLRM_REFERENCE_MODEL_HH
#define CENTAUR_DLRM_REFERENCE_MODEL_HH

#include <cstdint>
#include <vector>

#include "dlrm/embedding_table.hh"
#include "dlrm/mlp.hh"
#include "dlrm/model_config.hh"
#include "dlrm/workload.hh"

namespace centaur {

/** Intermediate and final tensors of one forward pass. */
struct ForwardResult
{
    /** reduced[table][sample * dim + d] */
    std::vector<std::vector<float>> reduced;
    /** bottomOut[sample * dim + d] */
    std::vector<float> bottomOut;
    /** topIn[sample * interactionDim + k] */
    std::vector<float> topIn;
    /** pre-sigmoid logits, one per sample */
    std::vector<float> logits;
    /** event probabilities, one per sample */
    std::vector<float> probabilities;
};

/**
 * The golden DLRM model: owns virtual tables, both MLPs and the
 * memory layout shared with the timing models.
 */
class ReferenceModel
{
  public:
    explicit ReferenceModel(const DlrmConfig &cfg);

    /** Full functional forward pass for @p batch. */
    ForwardResult forward(const InferenceBatch &batch) const;

    /** Gather + reduce only (Figure 2's SparseLengthsSum). */
    std::vector<std::vector<float>>
    reduceEmbeddings(const InferenceBatch &batch) const;

    /**
     * Feature interaction for one sample: pairwise dots of the
     * (numTables + 1) vectors, concatenated after the bottom output.
     */
    std::vector<float>
    interactSample(const float *bottom_out,
                   const std::vector<const float *> &reduced) const;

    const DlrmConfig &config() const { return _cfg; }
    const MemoryLayout &layout() const { return _layout; }
    const VirtualEmbeddingTable &table(std::size_t t) const
    {
        return _tables[t];
    }
    const Mlp &bottomMlp() const { return _bottom; }
    const Mlp &topMlp() const { return _top; }

  private:
    DlrmConfig _cfg;
    MemoryLayout _layout;
    std::vector<VirtualEmbeddingTable> _tables;
    Mlp _bottom;
    Mlp _top;
};

} // namespace centaur

#endif // CENTAUR_DLRM_REFERENCE_MODEL_HH
