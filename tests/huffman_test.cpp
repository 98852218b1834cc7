#include "dpmerge/analysis/huffman.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/support/rng.h"
#include "huffman_oracle.h"

namespace dpmerge::analysis {
namespace {

constexpr Sign U = Sign::Unsigned;
constexpr Sign S = Sign::Signed;

std::vector<Addend> uniform(int count, InfoContent ic) {
  return std::vector<Addend>(static_cast<std::size_t>(count),
                             Addend{ic, 1});
}

TEST(Huffman, Figure4SkewedVsBalanced) {
  // Figure 4: four 4-bit unsigned addends. The skewed chain computes
  // <7, unsigned>; Huffman rebalancing proves <6, unsigned>.
  const auto addends = uniform(4, {4, U});
  EXPECT_EQ(sequential_bound(addends), (InfoContent{7, U}));
  EXPECT_EQ(huffman_rebalanced_bound(addends), (InfoContent{6, U}));
}

TEST(Huffman, SingleAddendPassesThrough) {
  EXPECT_EQ(huffman_rebalanced_bound({{{{5, S}, 1}}}), (InfoContent{5, S}));
}

TEST(Huffman, EmptyIsZero) {
  EXPECT_EQ(huffman_rebalanced_bound({}), (InfoContent{0, U}));
}

TEST(Huffman, BalancedPowerOfTwo) {
  // 2^k equal addends of width w combine to exactly w + k.
  EXPECT_EQ(huffman_rebalanced_bound(uniform(8, {8, U})),
            (InfoContent{11, U}));
  EXPECT_EQ(huffman_rebalanced_bound(uniform(16, {10, U})),
            (InfoContent{14, U}));
}

TEST(Huffman, SkewedWidthsCombineSmallFirst) {
  // {2, 2, 3, 8}: Huffman does (2,2)->3, (3,3)->4, (4,8)->9; a skewed
  // left-to-right order starting from 8 would give 8+...: (8,2)->9,
  // (9,2)->10, (10,3)->11.
  const std::vector<Addend> a{{{2, U}, 1}, {{2, U}, 1}, {{3, U}, 1},
                              {{8, U}, 1}};
  EXPECT_EQ(huffman_rebalanced_bound(a), (InfoContent{9, U}));
}

TEST(Huffman, CoefficientExpandsToCopies) {
  // 5*b with b = <4, u>: five copies -> {4,4,4,4,4} -> 5,5,4 -> 6,5 -> 7.
  const std::vector<Addend> a{{{4, U}, 5}};
  EXPECT_EQ(expand_addends(a).size(), 5u);
  EXPECT_EQ(huffman_rebalanced_bound(a), (InfoContent{7, U}));
}

TEST(Huffman, NegativeCoefficientNegatesCopies) {
  // -4*d: four copies of -d = <i+1, s>.
  const std::vector<Addend> a{{{4, U}, -4}};
  const auto flat = expand_addends(a);
  ASSERT_EQ(flat.size(), 4u);
  for (const auto& f : flat) EXPECT_EQ(f, (InfoContent{5, S}));
}

TEST(Huffman, Observation59Example) {
  // z = 5*b - 4*d + 3*f, all of b, d, f 4-bit unsigned.
  const std::vector<Addend> a{{{4, U}, 5}, {{4, U}, -4}, {{4, U}, 3}};
  const auto h = huffman_rebalanced_bound(a);
  // 12 addends total (5 unsigned of width 4, 4 signed of width 5, 3 of 4):
  // the bound must at least cover the exact range [-4*15, 8*15].
  EXPECT_EQ(h.sign, S);
  EXPECT_GE(h.width, 8);
  EXPECT_LE(h.width, 10);
  // Huffman never does worse than the naive sequential order.
  EXPECT_LE(h.width, sequential_bound(a).width);
}

TEST(Huffman, NeverWorseThanSequential) {
  Rng rng(99);
  for (int t = 0; t < 200; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(1, 8));
    for (int k = 0; k < n; ++k) {
      a.push_back(Addend{{static_cast<int>(rng.uniform(1, 12)),
                          rng.chance(0.5) ? S : U},
                         rng.uniform(1, 3) * (rng.chance(0.3) ? -1 : 1)});
    }
    EXPECT_LE(huffman_rebalanced_bound(a).width, sequential_bound(a).width);
  }
}

// Theorem 5.10: the Huffman ordering yields the tightest bound among all
// combination orders. Verified exhaustively on small instances.
class HuffmanOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanOptimality, MatchesExhaustiveMinimum) {
  Rng rng(GetParam());
  for (int t = 0; t < 12; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(2, 6));
    for (int k = 0; k < n; ++k) {
      a.push_back(
          Addend{{static_cast<int>(rng.uniform(1, 10)), U}, 1});
    }
    const auto h = huffman_rebalanced_bound(a);
    const auto best = exhaustive_best_bound(a);
    EXPECT_EQ(h.width, best.width)
        << "huffman " << h.to_string() << " vs best " << best.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanOptimality,
                         ::testing::Values(301, 302, 303, 304));

// Validity: the Huffman bound is an upper bound on the true magnitude of the
// sum — checked against exact integer arithmetic for unsigned addends.
TEST(Huffman, BoundCoversExactRange) {
  Rng rng(123);
  for (int t = 0; t < 100; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(1, 6));
    std::int64_t hi = 0, lo = 0;
    for (int k = 0; k < n; ++k) {
      const int w = static_cast<int>(rng.uniform(1, 10));
      const std::int64_t c = rng.uniform(1, 4) * (rng.chance(0.3) ? -1 : 1);
      a.push_back(Addend{{w, U}, c});
      const std::int64_t m = (std::int64_t{1} << w) - 1;
      if (c > 0) {
        hi += c * m;
      } else {
        lo += c * m;
      }
    }
    const auto h = huffman_rebalanced_bound(a);
    const std::int64_t bhi = h.sign == U ? (std::int64_t{1} << h.width) - 1
                                         : (std::int64_t{1} << (h.width - 1)) - 1;
    const std::int64_t blo =
        h.sign == U ? 0 : -(std::int64_t{1} << (h.width - 1));
    EXPECT_GE(bhi, hi);
    EXPECT_LE(blo, lo);
  }
}

// The bucketed bound runs exactly the heap's combination sequence: random
// lists with width-0 entries, both signs, negative coefficients, |c| up to
// 64 and heavy key duplication (few distinct widths) must match the heap
// oracle bit for bit.
TEST(Huffman, BucketedMatchesHeapOracle) {
  Rng rng(4242);
  for (int t = 0; t < 2500; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(0, 24));
    const int max_w = static_cast<int>(rng.uniform(0, t % 3 == 0 ? 3 : 20));
    for (int k = 0; k < n; ++k) {
      const int w = static_cast<int>(rng.uniform(0, max_w));
      std::int64_t c = rng.uniform(rng.chance(0.5) ? 1 : 0, 64);
      if (rng.chance(0.35)) c = -c;
      a.push_back(Addend{{w, rng.chance(0.5) ? S : U}, c});
    }
    EXPECT_EQ(huffman_rebalanced_bound(a), oracle::heap_huffman_bound(a))
        << "case " << t;
  }
}

TEST(Huffman, HugeCoefficientIsNotExpanded) {
  // 2^40 copies of <5, u>: forty rounds of pairwise halving.
  const std::vector<Addend> a{{{5, U}, std::int64_t{1} << 40}};
  EXPECT_EQ(huffman_rebalanced_bound(a), (InfoContent{45, U}));
}

TEST(Huffman, MinInt64CoefficientThrows) {
  const std::vector<Addend> a{
      {{4, U}, std::numeric_limits<std::int64_t>::min()}};
  EXPECT_THROW(huffman_rebalanced_bound(a), std::invalid_argument);
  EXPECT_THROW(expand_addends(a), std::invalid_argument);
}

TEST(Huffman, CopyTotalOverflowThrows) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const std::vector<Addend> a{{{4, U}, big}, {{3, S}, -1}};
  EXPECT_THROW(huffman_rebalanced_bound(a), std::invalid_argument);
  // Exactly 2^63-1 copies in total is still representable.
  EXPECT_NO_THROW(huffman_rebalanced_bound({{{4, U}, big}}));
}

}  // namespace
}  // namespace dpmerge::analysis
