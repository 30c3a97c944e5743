/**
 * @file
 * Physical-address to DRAM coordinate mapping (channel, bank, row,
 * column) with XOR-permuted channel/bank selection to spread sparse
 * embedding-gather streams across banks.
 */

#ifndef CENTAUR_MEM_ADDRESS_MAP_HH
#define CENTAUR_MEM_ADDRESS_MAP_HH

#include <cstdint>

#include "sim/divider.hh"
#include "sim/units.hh"

namespace centaur {

/** DRAM coordinates of a cache-line-sized access. */
struct DramCoord
{
    std::uint32_t channel;
    std::uint32_t bank; //!< flat (rank x bank) index within a channel
    std::uint64_t row;
    std::uint32_t column; //!< line index within the row buffer

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && bank == o.bank && row == o.row &&
               column == o.column;
    }
};

/**
 * Interleaves lines (64 B unless configured otherwise) across
 * channels, then splits the per-channel line index into column / bank
 * / row fields. Bank bits are XOR-folded with low row bits so that
 * large power-of-two strides (common when a table's row pitch is a
 * power of two) still spread across banks.
 */
class AddressMap
{
  public:
    AddressMap(std::uint32_t channels, std::uint32_t banks_per_channel,
               std::uint32_t lines_per_row, std::uint32_t line_bytes = 64)
        : _channels(channels), _banks(banks_per_channel),
          _linesPerRow(lines_per_row), _lineBytes(line_bytes)
    {
    }

    DramCoord
    map(Addr addr) const
    {
        const std::uint64_t line = _lineBytes.quot(addr);
        const std::uint64_t chan_line = _channels.quot(line);
        const auto channel =
            static_cast<std::uint32_t>(_channels.rem(line ^ (line >> 7)));
        const std::uint64_t row_major = _linesPerRow.quot(chan_line);
        const auto column =
            static_cast<std::uint32_t>(chan_line - row_major * linesPerRow());
        const std::uint64_t row = _banks.quot(row_major);
        const auto bank =
            static_cast<std::uint32_t>(_banks.rem(row_major ^ row));
        return DramCoord{channel, bank, row, column};
    }

    std::uint32_t
    channels() const
    {
        return static_cast<std::uint32_t>(_channels.divisor());
    }
    std::uint32_t
    banksPerChannel() const
    {
        return static_cast<std::uint32_t>(_banks.divisor());
    }
    std::uint32_t
    linesPerRow() const
    {
        return static_cast<std::uint32_t>(_linesPerRow.divisor());
    }
    std::uint32_t
    lineBytes() const
    {
        return static_cast<std::uint32_t>(_lineBytes.divisor());
    }

  private:
    Divider _channels;
    Divider _banks;
    Divider _linesPerRow;
    Divider _lineBytes;
};

} // namespace centaur

#endif // CENTAUR_MEM_ADDRESS_MAP_HH
