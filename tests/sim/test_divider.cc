/**
 * @file
 * Divider must equal the hardware `/` and `%` for every divisor and
 * numerator: small and composite divisors, the LLC's 28672 sets,
 * every power of two, extreme and random 64-bit values, against
 * numerators at 0, multiples of d and their neighbours, and 2^64-1.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/divider.hh"
#include "sim/random.hh"

namespace centaur {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

void
expectExact(const Divider &div, std::uint64_t n)
{
    const std::uint64_t d = div.divisor();
    ASSERT_EQ(div.quot(n), n / d) << n << " / " << d;
    ASSERT_EQ(div.rem(n), n % d) << n << " % " << d;
}

std::vector<std::uint64_t>
divisors()
{
    std::vector<std::uint64_t> ds = {1, 2, 3, 5, 7, 10, 24, 96, 641, 28672,
                                     7800000, 0xFFFF, 0x10001, 0xFFFFFFFF,
                                     0x100000001ULL, kMax / 3, kMax - 1, kMax};
    for (int k = 0; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        ds.push_back(p);
        if (p > 2)
            ds.push_back(p - 1);
        ds.push_back(p + 1);
    }
    Rng rng(0xD1D);
    for (int i = 0; i < 200; ++i) {
        ds.push_back(rng.next() | 1);                        // ~2^63
        ds.push_back((rng.next() >> rng.nextBelow(64)) | 1); // any width
    }
    return ds;
}

TEST(Divider, EqualsHardwareDivisionAtEdgeNumerators)
{
    for (const std::uint64_t d : divisors()) {
        const Divider div(d);
        for (const std::uint64_t n :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, d + 1, kMax,
              kMax - 1, kMax / 2, kMax - kMax % d, kMax - kMax % d - 1})
            expectExact(div, n);
        // d*k and its neighbours, for k spread over the whole range
        // (the largest multiple is covered above).
        Rng rng(d);
        for (int i = 0; i < 64; ++i) {
            const std::uint64_t k = rng.nextBelow(kMax / d);
            expectExact(div, d * k);
            if (d * k > 0)
                expectExact(div, d * k - 1);
            if (d * k < kMax)
                expectExact(div, d * k + 1);
        }
    }
}

TEST(Divider, EqualsHardwareDivisionOnRandomNumerators)
{
    Rng rng(42);
    for (const std::uint64_t d : divisors()) {
        const Divider div(d);
        for (int i = 0; i < 2000; ++i) {
            expectExact(div, rng.next());
            expectExact(div, rng.next() >> rng.nextBelow(64));
        }
    }
}

TEST(DividerDeath, RejectsZero)
{
    EXPECT_DEATH(Divider(0), "zero divisor");
}

} // namespace
} // namespace centaur
