#include "dpmerge/support/bitvector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dpmerge/support/rng.h"

namespace dpmerge {
namespace {

TEST(BitVector, DefaultIsZeroWidth) {
  BitVector v;
  EXPECT_EQ(v.width(), 0);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_zero());
}

TEST(BitVector, FromUintRoundTrip) {
  const auto v = BitVector::from_uint(8, 0xAB);
  EXPECT_EQ(v.width(), 8);
  EXPECT_EQ(v.to_uint64(), 0xABu);
  EXPECT_EQ(v.to_string(), "10101011");
}

TEST(BitVector, FromUintMasksHighBits) {
  const auto v = BitVector::from_uint(4, 0xFF);
  EXPECT_EQ(v.to_uint64(), 0xFu);
}

TEST(BitVector, FromIntNegative) {
  const auto v = BitVector::from_int(8, -1);
  EXPECT_EQ(v.to_uint64(), 0xFFu);
  EXPECT_EQ(v.to_int64(), -1);
}

TEST(BitVector, FromIntNegativeWideVector) {
  // -2 sign-extended to 100 bits: ninety-nine ones, then a zero. Checked
  // through width-valid accessors (to_int64 requires width <= 64).
  const auto v = BitVector::from_int(100, -2);
  EXPECT_EQ(v.to_string(), std::string(99, '1') + "0");
  EXPECT_EQ(v.to_uint64() /* low 64 bits */, ~std::uint64_t{1});
  for (int i = 1; i < 100; ++i) EXPECT_TRUE(v.bit(i)) << i;
  EXPECT_FALSE(v.bit(0));
}

TEST(BitVector, FromStringMsbFirst) {
  const auto v = BitVector::from_string("0101");
  EXPECT_EQ(v.width(), 4);
  EXPECT_EQ(v.to_uint64(), 5u);
  EXPECT_THROW(BitVector::from_string("01x1"), std::invalid_argument);
}

TEST(BitVector, PaperExtensionExample) {
  // Definition 2.1's example: the 2-bit signal 11 extended to five bits is
  // 00011 unsigned and 11111 signed.
  const auto v = BitVector::from_string("11");
  EXPECT_EQ(v.extend(5, Sign::Unsigned).to_string(), "00011");
  EXPECT_EQ(v.extend(5, Sign::Signed).to_string(), "11111");
}

TEST(BitVector, SignedExtensionOfPositive) {
  const auto v = BitVector::from_string("011");
  EXPECT_EQ(v.extend(6, Sign::Signed).to_string(), "000011");
}

TEST(BitVector, TruncateKeepsLowBits) {
  const auto v = BitVector::from_string("110101");
  EXPECT_EQ(v.truncate(3).to_string(), "101");
  EXPECT_EQ(v.truncate(0).width(), 0);
  EXPECT_EQ(v.truncate(6), v);
}

TEST(BitVector, ResizeDispatches) {
  const auto v = BitVector::from_string("101");
  EXPECT_EQ(v.resize(2, Sign::Signed).to_string(), "01");
  EXPECT_EQ(v.resize(5, Sign::Signed).to_string(), "11101");
  EXPECT_EQ(v.resize(5, Sign::Unsigned).to_string(), "00101");
  EXPECT_EQ(v.resize(3, Sign::Signed), v);
}

TEST(BitVector, AddWithCarry) {
  const auto a = BitVector::from_uint(8, 0xFF);
  const auto b = BitVector::from_uint(8, 0x01);
  EXPECT_EQ(a.add(b).to_uint64(), 0u);  // wraps mod 2^8
}

TEST(BitVector, AddCarryAcrossWords) {
  auto a = BitVector::from_uint(128, ~std::uint64_t{0});
  const auto one = BitVector::from_uint(128, 1);
  const auto s = a.add(one);
  EXPECT_FALSE(s.bit(63));
  EXPECT_TRUE(s.bit(64));
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(s.bit(i));
}

TEST(BitVector, SubWraps) {
  const auto a = BitVector::from_uint(8, 3);
  const auto b = BitVector::from_uint(8, 5);
  EXPECT_EQ(a.sub(b).to_int64(), -2);
}

TEST(BitVector, MulModular) {
  const auto a = BitVector::from_uint(8, 20);
  const auto b = BitVector::from_uint(8, 13);
  EXPECT_EQ(a.mul(b).to_uint64(), 260u % 256u);
}

TEST(BitVector, MulSignedSemanticsViaTwosComplement) {
  // (-3) * 5 = -15 in 8-bit two's complement.
  const auto a = BitVector::from_int(8, -3);
  const auto b = BitVector::from_int(8, 5);
  EXPECT_EQ(a.mul(b).to_int64(), -15);
}

TEST(BitVector, MulWide) {
  // (2^64 + 3) * (2^64 + 5) mod 2^130 = 2^128 + 8*2^64 + 15.
  auto a = BitVector::from_uint(130, 3);
  a.set_bit(64, true);
  auto b = BitVector::from_uint(130, 5);
  b.set_bit(64, true);
  const auto p = a.mul(b);
  EXPECT_EQ(p.to_uint64(), 15u);
  EXPECT_TRUE(p.bit(67));  // 8 * 2^64
  EXPECT_TRUE(p.bit(128));
  EXPECT_FALSE(p.bit(129));
}

TEST(BitVector, NegateTwosComplement) {
  EXPECT_EQ(BitVector::from_int(8, 7).negate().to_int64(), -7);
  EXPECT_EQ(BitVector::from_int(8, 0).negate().to_int64(), 0);
  // Most negative value negates to itself.
  EXPECT_EQ(BitVector::from_int(8, -128).negate().to_int64(), -128);
}

TEST(BitVector, BitNot) {
  EXPECT_EQ(BitVector::from_string("0101").bit_not().to_string(), "1010");
}

TEST(BitVector, IsExtensionOfLow) {
  const auto pos = BitVector::from_string("00010110");
  EXPECT_TRUE(pos.is_extension_of_low(5, Sign::Unsigned));
  EXPECT_FALSE(pos.is_extension_of_low(4, Sign::Unsigned));
  // Bit 4 is set, so a *signed* reading of the low 5 bits would be negative;
  // one more (zero) bit is needed.
  EXPECT_FALSE(pos.is_extension_of_low(5, Sign::Signed));
  EXPECT_TRUE(pos.is_extension_of_low(6, Sign::Signed));
  // Vacuous full-width claim always holds.
  EXPECT_TRUE(pos.is_extension_of_low(8, Sign::Signed));

  const auto neg = BitVector::from_string("11110110");
  EXPECT_TRUE(neg.is_extension_of_low(5, Sign::Signed));
  EXPECT_FALSE(neg.is_extension_of_low(4, Sign::Signed));
  EXPECT_FALSE(neg.is_extension_of_low(5, Sign::Unsigned));
}

TEST(BitVector, MinExtensionWidth) {
  EXPECT_EQ(BitVector::from_string("00010110").min_extension_width(Sign::Unsigned), 5);
  EXPECT_EQ(BitVector::from_string("00010110").min_extension_width(Sign::Signed), 6);
  EXPECT_EQ(BitVector::from_string("11110110").min_extension_width(Sign::Signed), 5);
  EXPECT_EQ(BitVector::from_string("11110110").min_extension_width(Sign::Unsigned), 8);
  EXPECT_EQ(BitVector::from_string("0000").min_extension_width(Sign::Unsigned), 0);
  EXPECT_EQ(BitVector::from_string("1111").min_extension_width(Sign::Signed), 1);
}

TEST(BitVector, Comparisons) {
  const auto a = BitVector::from_int(8, -1);
  const auto b = BitVector::from_int(8, 1);
  EXPECT_TRUE(a.signed_lt(b));
  EXPECT_FALSE(b.signed_lt(a));
  EXPECT_TRUE(b.unsigned_lt(a));  // 0xFF > 0x01 unsigned
  EXPECT_FALSE(a.unsigned_lt(a));
}

// Property sweep: modular arithmetic on BitVector agrees with native 64-bit
// arithmetic truncated to the same width, across widths and random values.
class BitVectorArithProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorArithProperty, MatchesNativeArithmetic) {
  const int w = GetParam();
  Rng rng(static_cast<std::uint64_t>(w) * 7919);
  const std::uint64_t mask =
      w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t x = rng.next_u64() & mask;
    const std::uint64_t y = rng.next_u64() & mask;
    const auto bx = BitVector::from_uint(w, x);
    const auto by = BitVector::from_uint(w, y);
    EXPECT_EQ(bx.add(by).to_uint64(), (x + y) & mask);
    EXPECT_EQ(bx.sub(by).to_uint64(), (x - y) & mask);
    EXPECT_EQ(bx.mul(by).to_uint64(), (x * y) & mask);
    EXPECT_EQ(bx.negate().to_uint64(), (~x + 1) & mask);
    EXPECT_EQ(bx.unsigned_lt(by), x < y);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorArithProperty,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 31, 32, 33,
                                           48, 63, 64));

// Property: extension then truncation round-trips; min_extension_width is
// minimal and valid.
class BitVectorExtensionProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorExtensionProperty, ExtensionInvariants) {
  const int w = GetParam();
  Rng rng(static_cast<std::uint64_t>(w) * 104729);
  for (int t = 0; t < 100; ++t) {
    const BitVector v = rng.bits(w);
    for (Sign s : {Sign::Unsigned, Sign::Signed}) {
      const auto e = v.extend(w + 5, s);
      EXPECT_EQ(e.truncate(w), v);
      EXPECT_TRUE(e.is_extension_of_low(w, s));
      const int m = v.min_extension_width(s);
      EXPECT_TRUE(v.is_extension_of_low(m, s));
      if (m > 0) {
        EXPECT_FALSE(v.is_extension_of_low(m - 1, s));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorExtensionProperty,
                         ::testing::Values(1, 4, 9, 17, 64, 70, 128));

}  // namespace
}  // namespace dpmerge
