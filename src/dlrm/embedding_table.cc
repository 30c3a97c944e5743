#include "dlrm/embedding_table.hh"

#include <algorithm>

#include "sim/log.hh"

namespace centaur {

namespace paramgen {

float
hashedFloat(std::uint64_t domain, std::uint64_t a, std::uint64_t b,
            std::uint64_t c, float scale)
{
    return unitFloat(hash(prefix(domain, a, b) ^ c)) * scale;
}

} // namespace paramgen

namespace {

constexpr std::uint64_t kTableDomain = 0xE3B0;
// Keeps reduced sums of ~100 vectors within sigmoid's useful dynamic
// range.
constexpr float kTableScale = 0.05f;

} // namespace

VirtualEmbeddingTable::VirtualEmbeddingTable(std::uint32_t table_id,
                                             std::uint64_t rows,
                                             std::uint32_t dim,
                                             Addr base)
    : _id(table_id), _rows(rows), _dim(dim), _base(base)
{
    if (rows == 0 || dim == 0)
        fatal("embedding table needs nonzero rows and dim");
}

std::uint64_t
VirtualEmbeddingTable::rowPrefix(std::uint64_t row) const
{
    if (row >= _rows)
        panic("embedding row ", row, " out of range (table ", _id,
              " has ", _rows, " rows)");
    return paramgen::prefix(kTableDomain, _id, row);
}

float
VirtualEmbeddingTable::element(std::uint64_t row, std::uint32_t d) const
{
    rowPrefix(row); // bounds check only
    return paramgen::hashedFloat(kTableDomain, _id, row, d, kTableScale);
}

void
VirtualEmbeddingTable::row(std::uint64_t row_idx, float *out) const
{
    // 0.0f + v == v bit for bit: synthesis never yields -0.0f.
    std::fill(out, out + _dim, 0.0f);
    accumulateRow(row_idx, out);
}

void
VirtualEmbeddingTable::accumulateRow(std::uint64_t row_idx,
                                     float *out) const
{
    const std::uint64_t prefix = rowPrefix(row_idx);
    for (std::uint32_t d = 0; d < _dim; ++d)
        out[d] += paramgen::unitFloat(paramgen::hash(prefix ^ d)) *
                  kTableScale;
}

MemoryLayout
MemoryLayout::buildFor(std::uint32_t num_tables,
                       std::uint64_t table_bytes, Addr origin)
{
    constexpr Addr kAlign = 4096;
    auto align = [](Addr a) { return (a + kAlign - 1) & ~(kAlign - 1); };

    MemoryLayout layout;
    Addr cursor = align(origin);
    layout.indexArrayBase = cursor;
    cursor = align(cursor + 16 * kMiB); // generous index region
    layout.denseFeatureBase = cursor;
    cursor = align(cursor + 16 * kMiB);
    layout.mlpWeightBase = cursor;
    cursor = align(cursor + 16 * kMiB);
    layout.outputBase = cursor;
    cursor = align(cursor + 16 * kMiB);
    layout.tableBases.reserve(num_tables);
    for (std::uint32_t t = 0; t < num_tables; ++t) {
        layout.tableBases.push_back(cursor);
        cursor = align(cursor + table_bytes);
    }
    return layout;
}

} // namespace centaur
