// Every BitVector operation against the bit-serial reference in
// bitvector_oracle.h, at the widths around its storage boundaries: empty,
// one bit, the inline word (63, 64), the first heap widths (65, 127, 128,
// 129) and dfg::kMaxWidth (1024). Plus copy, move and assignment across the
// inline <-> heap boundary, and self-assignment. The sanitizer jobs run it
// with the rest of ctest.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bitvector_oracle.h"
#include "dpmerge/support/bitvector.h"
#include "dpmerge/support/rng.h"

namespace dpmerge {
namespace {

namespace o = oracle;

constexpr int kWidths[] = {0, 1, 63, 64, 65, 127, 128, 129, 1024};
constexpr Sign kSigns[] = {Sign::Unsigned, Sign::Signed};

std::string label(const BitVector& v) {
  return std::to_string(v.width()) + "'b" + v.to_string();
}

/// Specials (zero, one, all ones, MSB alone, all but the MSB, LSB of the
/// second word), short values sign- and zero-extended to `width` (which
/// give the extension queries every answer), then random values.
std::vector<BitVector> samples(int width, Rng& rng) {
  std::vector<BitVector> v;
  v.push_back(BitVector(width));
  if (width == 0) return v;
  const BitVector ones = BitVector(width).bit_not();
  BitVector top(width);
  top.set_bit(width - 1, true);
  v.push_back(BitVector::from_uint(width, 1));
  v.push_back(ones);
  v.push_back(top);
  v.push_back(ones.sub(top));
  if (width > 64) {
    BitVector w1(width);
    w1.set_bit(64, true);
    v.push_back(w1);
  }
  for (int k : {1, 5, 63, 64, 65, 100, width - 1}) {
    if (k <= 0 || k > width) continue;
    const BitVector low = rng.bits(k);
    v.push_back(low.extend(width, Sign::Signed));
    v.push_back(low.extend(width, Sign::Unsigned));
  }
  for (int i = 0; i < 6; ++i) v.push_back(rng.bits(width));
  return v;
}

TEST(BitVectorOracle, StringRoundTripPinsTheBitOrder) {
  const BitVector v = BitVector::from_uint(70, 0b1011);
  const o::Bits b = o::of(v);
  ASSERT_EQ(b.width(), 70);
  EXPECT_TRUE(b.b[0] && b.b[1] && !b.b[2] && b.b[3]);
  for (int i = 4; i < 70; ++i) EXPECT_FALSE(b.b[i]) << i;
  EXPECT_EQ(o::to_bitvector(b), v);
}

TEST(BitVectorOracle, BitAccessAndWords) {
  Rng rng(1);
  for (int w : kWidths) {
    for (const BitVector& v : samples(w, rng)) {
      const o::Bits ref = o::of(v);
      BitVector copy(w);
      for (int i = 0; i < w; ++i) {
        ASSERT_EQ(v.bit(i), ref.b[i]) << label(v) << " bit " << i;
        copy.set_bit(i, v.bit(i));
      }
      EXPECT_EQ(copy, v);
      BitVector by_words(w);
      for (int k = 0; k * 64 < w; ++k) {
        std::uint64_t word = 0;
        for (int i = 0; i < 64 && 64 * k + i < w; ++i) {
          word |= static_cast<std::uint64_t>(ref.b[64 * k + i]) << i;
        }
        by_words.set_word(k, word);
      }
      EXPECT_EQ(by_words, v) << label(v);
      if (w > 0) {
        EXPECT_EQ(v.msb(), o::msb(ref));
        // set_word drops the bits of the top word above the width.
        const int top = (w - 1) / 64;
        BitVector full(w);
        full.set_word(top, ~std::uint64_t{0});
        o::Bits expect = o::zeros(w);
        for (int i = 64 * top; i < w; ++i) expect.b[i] = true;
        EXPECT_EQ(o::of(full), expect) << w;
      }
      EXPECT_EQ(v.is_zero(), o::is_zero(ref)) << label(v);
      EXPECT_EQ(v.to_uint64(), o::to_uint64(ref)) << label(v);
      if (w <= 64) {
        EXPECT_EQ(v.to_int64(), o::to_int64(ref)) << label(v);
      }
    }
  }
}

TEST(BitVectorOracle, Constructors) {
  const std::uint64_t us[] = {0, 1, 0x8000000000000000ull, ~0ull,
                              0x0123456789abcdefull};
  const std::int64_t ss[] = {0, 1, -1, -2, INT64_MIN, INT64_MAX};
  for (int w : kWidths) {
    EXPECT_EQ(o::of(BitVector(w)), o::zeros(w));
    for (std::uint64_t u : us) {
      EXPECT_EQ(o::of(BitVector::from_uint(w, u)), o::from_uint(w, u))
          << w << " " << u;
    }
    for (std::int64_t s : ss) {
      EXPECT_EQ(o::of(BitVector::from_int(w, s)), o::from_int(w, s))
          << w << " " << s;
    }
    Rng a(w), b(w);
    // Rng::bits draws one mt19937_64 word per 64 bits, low bits first.
    const BitVector r = a.bits(w);
    o::Bits expect = o::zeros(w);
    for (int i = 0; i < w; i += 64) {
      const std::uint64_t word = b.next_u64();
      for (int k = 0; k < 64 && i + k < w; ++k) {
        expect.b[i + k] = (word >> k) & 1u;
      }
    }
    EXPECT_EQ(o::of(r), expect) << w;
  }
}

TEST(BitVectorOracle, ResizeTruncateExtend) {
  Rng rng(2);
  for (int w : kWidths) {
    for (const BitVector& v : samples(w, rng)) {
      const o::Bits ref = o::of(v);
      for (int to : kWidths) {
        for (Sign t : kSigns) {
          EXPECT_EQ(o::of(v.resize(to, t)), o::resize(ref, to, t))
              << label(v) << " -> " << to;
          if (to >= w) {
            EXPECT_EQ(o::of(v.extend(to, t)), o::extend(ref, to, t))
                << label(v) << " -> " << to;
          }
        }
        if (to <= w) {
          EXPECT_EQ(o::of(v.truncate(to)), o::truncate(ref, to))
              << label(v) << " -> " << to;
        }
      }
    }
  }
}

TEST(BitVectorOracle, UnaryOps) {
  Rng rng(3);
  for (int w : kWidths) {
    for (const BitVector& v : samples(w, rng)) {
      const o::Bits ref = o::of(v);
      EXPECT_EQ(o::of(v.bit_not()), o::bit_not(ref)) << label(v);
      EXPECT_EQ(o::of(v.negate()), o::negate(ref)) << label(v);
      for (int s : {0, 1, 7, 63, 64, 65, 128, w - 1, w, w + 3}) {
        if (s < 0) continue;
        EXPECT_EQ(o::of(v.shl(s)), o::shl(ref, s)) << label(v) << " << " << s;
      }
    }
  }
}

TEST(BitVectorOracle, BinaryOps) {
  Rng rng(4);
  for (int w : kWidths) {
    const std::vector<BitVector> vs = samples(w, rng);
    // Each sample against the specials at the front of the list and two
    // random partners: the bit-serial multiply is quadratic in the width.
    for (const BitVector& a : vs) {
      const o::Bits ra = o::of(a);
      std::vector<BitVector> partners(vs.begin(),
                                      vs.begin() + std::min<std::size_t>(
                                                       6, vs.size()));
      partners.push_back(rng.bits(w));
      partners.push_back(vs[rng.uniform(0, static_cast<std::int64_t>(
                                               vs.size() - 1))]);
      for (const BitVector& b : partners) {
        const o::Bits rb = o::of(b);
        const std::string at = label(a) + " , " + label(b);
        EXPECT_EQ(o::of(a.add(b)), o::add(ra, rb)) << at;
        EXPECT_EQ(o::of(a.sub(b)), o::sub(ra, rb)) << at;
        EXPECT_EQ(o::of(a.mul(b)), o::mul(ra, rb)) << at;
        EXPECT_EQ(a == b, ra == rb) << at;
        EXPECT_EQ(a != b, ra != rb) << at;
        EXPECT_EQ(a.unsigned_lt(b), o::unsigned_lt(ra, rb)) << at;
        EXPECT_EQ(a.signed_lt(b), o::signed_lt(ra, rb)) << at;
      }
    }
  }
}

TEST(BitVectorOracle, ExtensionQueries) {
  Rng rng(5);
  for (int w : kWidths) {
    for (const BitVector& v : samples(w, rng)) {
      const o::Bits ref = o::of(v);
      for (Sign t : kSigns) {
        EXPECT_EQ(v.min_extension_width(t), o::min_extension_width(ref, t))
            << label(v) << (t == Sign::Signed ? " signed" : " unsigned");
        for (int i = 0; i <= w; ++i) {
          ASSERT_EQ(v.is_extension_of_low(i, t),
                    o::is_extension_of_low(ref, i, t))
              << label(v) << " i=" << i
              << (t == Sign::Signed ? " signed" : " unsigned");
        }
      }
    }
  }
}

TEST(BitVectorOracle, CopyMoveAndAssignAcrossTheInlineHeapBoundary) {
  Rng rng(6);
  const BitVector w65 = rng.bits(65);
  const BitVector w64 = rng.bits(64);
  const BitVector w129 = rng.bits(129);
  const BitVector w127 = rng.bits(127);

  BitVector x = w65;  // heap copy
  EXPECT_EQ(x, w65);
  x = w64;  // heap -> inline
  EXPECT_EQ(x, w64);
  x = w65;  // inline -> heap
  EXPECT_EQ(x, w65);
  x = w127;  // heap -> heap, same word count (block reused)
  EXPECT_EQ(x, w127);
  x = w129;  // heap -> heap, more words
  EXPECT_EQ(x, w129);
  x = w65;  // heap -> heap, fewer words
  EXPECT_EQ(x, w65);
  EXPECT_EQ(w65.width(), 65);  // sources untouched

  BitVector moved(std::move(x));  // heap move: x is left empty
  EXPECT_EQ(moved, w65);
  EXPECT_EQ(x.width(), 0);  // NOLINT(bugprone-use-after-move)
  x = w64;                  // a moved-from vector takes a new value
  EXPECT_EQ(x, w64);
  BitVector inline_moved(std::move(x));
  EXPECT_EQ(inline_moved, w64);

  moved = std::move(inline_moved);  // inline into heap
  EXPECT_EQ(moved, w64);
  BitVector heap_src = w129;
  moved = std::move(heap_src);  // heap into inline
  EXPECT_EQ(moved, w129);
  BitVector narrow = w64;
  narrow = BitVector(w65);  // heap temporary into inline
  EXPECT_EQ(narrow, w65);

  BitVector self = w129;
  BitVector& alias = self;
  self = alias;  // self copy-assignment
  EXPECT_EQ(self, w129);
  self = std::move(alias);  // self move-assignment
  EXPECT_EQ(self, w129);
  BitVector small = w64;
  BitVector& small_alias = small;
  small = small_alias;
  EXPECT_EQ(small, w64);

  // A vector of mixed widths keeps every value through its regrowth (moves).
  std::vector<BitVector> grown;
  std::vector<BitVector> expect;
  for (int i = 0; i < 100; ++i) {
    const int w = kWidths[i % std::size(kWidths)];
    expect.push_back(rng.bits(w));
    grown.push_back(expect.back());
  }
  EXPECT_EQ(grown, expect);
}

}  // namespace
}  // namespace dpmerge
