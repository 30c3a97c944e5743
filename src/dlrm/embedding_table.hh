/**
 * @file
 * Virtual embedding tables.
 *
 * Production tables reach hundreds of GB; allocating them would be
 * wasteful and unnecessary. A VirtualEmbeddingTable synthesizes the
 * value of any (row, dim) element deterministically from a hash, so
 * all design points see identical "weights" with zero storage, while
 * the timing models operate on the table's true address footprint.
 */

#ifndef CENTAUR_DLRM_EMBEDDING_TABLE_HH
#define CENTAUR_DLRM_EMBEDDING_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/units.hh"

namespace centaur {

/**
 * Deterministic value synthesis shared by tables and MLP params.
 *
 * hashedFloat() is the definition of every synthesized value. Hot
 * loops may hoist the (domain, a, b) prefix() out of their inner loop
 * and finish each element with one hash() + unitFloat(), but any such
 * fast path must reproduce hashedFloat() bit for bit.
 */
namespace paramgen {

/** SplitMix64 hash. */
inline std::uint64_t
hash(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Map the top 24 bits of @p h to [-1, 1). */
inline float
unitFloat(std::uint64_t h)
{
    const auto bits = static_cast<std::uint32_t>(h >> 40);
    return static_cast<float>(bits) / 8388608.0f - 1.0f; // 2^23
}

/** The hash chain of a (domain, a, b) tuple, shared by all c. */
inline std::uint64_t
prefix(std::uint64_t domain, std::uint64_t a, std::uint64_t b)
{
    return hash(hash(hash(domain) ^ a) ^ b);
}

/**
 * Hash of a (domain, a, b, c) tuple to a float in [-scale, scale]:
 * unitFloat(hash(hash(hash(hash(domain) ^ a) ^ b) ^ c)) * scale.
 */
float hashedFloat(std::uint64_t domain, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c, float scale);

} // namespace paramgen

/**
 * One embedding table with a base address inside the simulated CPU
 * physical memory and hash-synthesized contents. Element (row, d) is
 * paramgen::hashedFloat(0xE3B0, id, row, d, 0.05f); row() and
 * accumulateRow() hash the row prefix once and must match it bit for
 * bit.
 */
class VirtualEmbeddingTable
{
  public:
    /**
     * @param table_id stable identity (drives value synthesis)
     * @param rows number of embedding vectors
     * @param dim floats per vector
     * @param base base physical address of row 0
     */
    VirtualEmbeddingTable(std::uint32_t table_id, std::uint64_t rows,
                          std::uint32_t dim, Addr base);

    /** Value of element @p d of row @p row. */
    float element(std::uint64_t row, std::uint32_t d) const;

    /** Materialize a whole row. */
    void row(std::uint64_t row, float *out) const;

    /** out[d] += element(row, d) for d = 0..dim()-1, in order. */
    void accumulateRow(std::uint64_t row, float *out) const;

    /** Physical address of the first byte of @p row. */
    Addr
    rowAddr(std::uint64_t row) const
    {
        return _base + row * rowBytes();
    }

    std::uint64_t rowBytes() const
    {
        return static_cast<std::uint64_t>(_dim) * 4;
    }

    std::uint32_t id() const { return _id; }
    std::uint64_t rows() const { return _rows; }
    std::uint32_t dim() const { return _dim; }
    Addr base() const { return _base; }
    std::uint64_t sizeBytes() const { return _rows * rowBytes(); }

  private:
    /** Bounds-check @p row and return its paramgen::prefix(). */
    std::uint64_t rowPrefix(std::uint64_t row) const;

    std::uint32_t _id;
    std::uint64_t _rows;
    std::uint32_t _dim;
    Addr _base;
};

/**
 * Flat layout of every model data structure in the simulated shared
 * physical memory: sparse index arrays, embedding tables, MLP
 * weights, dense features and outputs. Mirrors the base-pointer set
 * the CPU hands to Centaur's BPregs over MMIO (Section IV-C).
 */
struct MemoryLayout
{
    Addr indexArrayBase = 0;
    Addr denseFeatureBase = 0;
    Addr mlpWeightBase = 0;
    Addr outputBase = 0;
    std::vector<Addr> tableBases;

    /**
     * Lay out a model's structures on 4 KB boundaries starting at
     * @p origin.
     */
    static MemoryLayout buildFor(std::uint32_t num_tables,
                                 std::uint64_t table_bytes,
                                 Addr origin = 0x10000000);
};

} // namespace centaur

#endif // CENTAUR_DLRM_EMBEDDING_TABLE_HH
