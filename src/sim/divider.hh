/**
 * @file
 * Exact unsigned 64-bit division by a divisor fixed at construction,
 * without an integer divide instruction. Hot address arithmetic (cache
 * set/tag split, DRAM channel/bank/row interleave, refresh period)
 * divides by a handful of configuration constants per model; a `div`
 * costs tens of cycles, the reciprocal multiply below a few.
 *
 * Powers of two reduce to a shift. Any other divisor d uses the
 * Granlund-Montgomery round-up reciprocal ("Division by Invariant
 * Integers using Multiplication", PLDI 1994, Fig. 4.1): with
 * l = ceil(log2 d) and m = floor(2^64 * (2^l - d) / d) + 1,
 *
 *     t = mulhi(m, n);   n / d = (t + ((n - t) >> 1)) >> (l - 1)
 *
 * which is exact for every 64-bit numerator n.
 */

#ifndef CENTAUR_SIM_DIVIDER_HH
#define CENTAUR_SIM_DIVIDER_HH

#include <cstdint>

#include "sim/log.hh"

namespace centaur {

/** n / d and n % d for a divisor d >= 1 fixed at construction. */
class Divider
{
  public:
    explicit Divider(std::uint64_t d) : _d(d)
    {
        if (d == 0)
            panic("Divider constructed with a zero divisor");
        std::uint32_t l = 0; // ceil(log2 d)
        while (l < 64 && (std::uint64_t{1} << l) < d)
            ++l;
        if ((d & (d - 1)) == 0) {
            _shift = l; // d == 2^l: _magic stays 0
            return;
        }
        // 2^(l-1) < d < 2^l, so 2^l - d < d and the quotient below
        // fits 64 bits.
        const Wide num = (Wide{1} << l) - d;
        _magic = static_cast<std::uint64_t>((num << 64) / d) + 1;
        _shift = l - 1;
    }

    std::uint64_t
    quot(std::uint64_t n) const
    {
        if (_magic == 0)
            return n >> _shift;
        const auto t = static_cast<std::uint64_t>(
            (Wide{_magic} * n) >> 64);
        return (t + ((n - t) >> 1)) >> _shift;
    }

    std::uint64_t rem(std::uint64_t n) const { return n - quot(n) * _d; }

    std::uint64_t divisor() const { return _d; }

  private:
    __extension__ typedef unsigned __int128 Wide;

    std::uint64_t _d;
    std::uint64_t _magic = 0; //!< 0: power of two, quotient is a shift
    std::uint32_t _shift = 0;
};

} // namespace centaur

#endif // CENTAUR_SIM_DIVIDER_HH
