// Isolated property tests for the information-content resize algebra — the
// core of Section 5's propagation rules and of Observation 6.1. For random
// claims and random values *conforming* to the claim, the resized value must
// conform to the resized claim.

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/support/rng.h"

namespace dpmerge::analysis {
namespace {

/// Draws a value of `carrier` bits satisfying the claim <i, t>.
BitVector conforming_value(Rng& rng, int carrier, InfoContent c) {
  const BitVector low = rng.bits(c.width);
  return low.resize(carrier, c.sign);
}

class IcResizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IcResizeProperty, ResizedValueSatisfiesResizedClaim) {
  Rng rng(GetParam());
  for (int t = 0; t < 4000; ++t) {
    const int from = static_cast<int>(rng.uniform(1, 20));
    const int to = static_cast<int>(rng.uniform(1, 20));
    const InfoContent claim{static_cast<int>(rng.uniform(0, from)),
                            rng.chance(0.5) ? Sign::Signed : Sign::Unsigned};
    const Sign ext = rng.chance(0.5) ? Sign::Signed : Sign::Unsigned;

    const BitVector v = conforming_value(rng, from, claim);
    ASSERT_TRUE(v.is_extension_of_low(claim.width, claim.sign));

    const InfoContent rc = ic_resize(claim, from, to, ext);
    const BitVector rv = v.resize(to, ext);
    ASSERT_LE(rc.width, to);
    EXPECT_TRUE(rv.is_extension_of_low(rc.width, rc.sign))
        << "claim " << claim.to_string() << " from " << from << " to " << to
        << " ext " << to_string(ext) << " value " << v.to_string()
        << " resized " << rv.to_string() << " rclaim " << rc.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcResizeProperty,
                         ::testing::Values(1001, 1002, 1003, 1004));

// The per-edge step of the information-content transfer against the
// concrete delivery: for a source value within its claim, the value an edge
// carries satisfies `ic_edge`'s carried claim, and the operand
// `dfg::deliver` hands the destination satisfies its delivered claim.
// Extension destinations resize with their own t(N) (Definition 5.5), and
// half of them here have t(N) != t(e), where the two rules differ.
class IcDeliveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IcDeliveryProperty, DeliveredValueSatisfiesDeliveredClaim) {
  constexpr std::array kDestinations = {
      dfg::OpKind::Extension, dfg::OpKind::Add, dfg::OpKind::Sub,
      dfg::OpKind::Mul,       dfg::OpKind::Neg, dfg::OpKind::Shl,
      dfg::OpKind::LtS,       dfg::OpKind::Eq,  dfg::OpKind::Output};
  auto sign = [](bool s) { return s ? Sign::Signed : Sign::Unsigned; };
  Rng rng(GetParam());
  int sign_flipping_extensions = 0;
  for (int t = 0; t < 4000; ++t) {
    const int src_width = static_cast<int>(rng.uniform(1, 20));
    const InfoContent claim{static_cast<int>(rng.uniform(0, src_width)),
                            sign(rng.chance(0.5))};
    dfg::Edge e;
    e.width = static_cast<int>(rng.uniform(1, 20));
    e.sign = sign(rng.chance(0.5));
    dfg::Node dst;
    dst.kind = rng.chance(0.5)
                   ? dfg::OpKind::Extension
                   : kDestinations[static_cast<std::size_t>(
                         rng.uniform(1, kDestinations.size() - 1))];
    dst.width = static_cast<int>(rng.uniform(1, 20));
    dst.ext_sign = rng.chance(0.5) ? e.sign : sign(e.sign == Sign::Unsigned);
    const bool own_sign = dst.kind == dfg::OpKind::Extension;
    if (own_sign && dst.ext_sign != e.sign) ++sign_flipping_extensions;

    const BitVector v = conforming_value(rng, src_width, claim);
    const EdgeClaims ec = ic_edge(claim, src_width, e, dst);
    const BitVector carried = v.resize(e.width, e.sign);
    const BitVector operand =
        dfg::deliver(v, src_width, e, dst, dfg::BitVectorOps{}).delivered;
    std::ostringstream what;
    what << "claim " << claim.to_string() << " on " << v.to_string()
         << " via <" << e.width << ", " << to_string(e.sign) << "> into "
         << dfg::to_string(dst.kind) << " <" << dst.width << ", "
         << to_string(dst.ext_sign) << ">";
    ASSERT_EQ(operand,
              carried.resize(dst.width, own_sign ? dst.ext_sign : e.sign))
        << what.str();
    EXPECT_TRUE(
        carried.is_extension_of_low(ec.carried.width, ec.carried.sign))
        << what.str() << ": carried " << ec.carried.to_string();
    EXPECT_TRUE(
        operand.is_extension_of_low(ec.delivered.width, ec.delivered.sign))
        << what.str() << ": delivered " << ec.delivered.to_string();
  }
  EXPECT_GT(sign_flipping_extensions, 500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcDeliveryProperty,
                         ::testing::Values(1101, 1102, 1103));

// The binary/unary tuple ops, property-style on representable values wider
// than the exhaustive unit test covers (uses 63-bit headroom).
class IcAlgebraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IcAlgebraProperty, OpsContainResults) {
  Rng rng(GetParam());
  auto draw = [&rng](InfoContent c) -> std::int64_t {
    if (c.width == 0) return 0;
    if (c.sign == Sign::Unsigned) {
      return static_cast<std::int64_t>(rng.next_u64() &
                                       ((1ull << c.width) - 1));
    }
    const std::int64_t span = std::int64_t{1} << c.width;
    return rng.uniform(-(span / 2), span / 2 - 1);
  };
  auto contains = [](InfoContent c, std::int64_t v) {
    if (c.width == 0) return v == 0;
    if (c.sign == Sign::Unsigned) {
      return v >= 0 && (c.width >= 63 || v < (std::int64_t{1} << c.width));
    }
    if (c.width >= 63) return true;
    const std::int64_t half = std::int64_t{1} << (c.width - 1);
    return v >= -half && v < half;
  };
  for (int t = 0; t < 5000; ++t) {
    const InfoContent a{static_cast<int>(rng.uniform(0, 24)),
                        rng.chance(0.5) ? Sign::Signed : Sign::Unsigned};
    const InfoContent b{static_cast<int>(rng.uniform(0, 24)),
                        rng.chance(0.5) ? Sign::Signed : Sign::Unsigned};
    const std::int64_t x = draw(a), y = draw(b);
    EXPECT_TRUE(contains(ic_add(a, b), x + y))
        << a.to_string() << "+" << b.to_string() << ": " << x << "," << y;
    EXPECT_TRUE(contains(ic_sub(a, b), x - y))
        << a.to_string() << "-" << b.to_string() << ": " << x << "," << y;
    EXPECT_TRUE(contains(ic_mul(a, b), x * y))
        << a.to_string() << "*" << b.to_string() << ": " << x << "," << y;
    EXPECT_TRUE(contains(ic_neg(a), -x));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcAlgebraProperty,
                         ::testing::Values(2001, 2002, 2003));

// Observation 6.1, as stated in the paper, is implied by ic_resize: check
// the observation's two cases explicitly against our (tighter) rules.
TEST(Observation61, CaseAnalysis) {
  // (i) t == t(N): io = min(i, w(N)), to = t(N).
  for (Sign t : {Sign::Unsigned, Sign::Signed}) {
    const auto r = ic_resize({3, t}, 8, 12, t);
    EXPECT_EQ(r.width, 3);
    EXPECT_EQ(r.sign, t);
  }
  // (i) continued: t == unsigned, t(N) == signed -> our rule keeps the
  // tighter unsigned claim; the paper's <min(i,w), signed> is implied
  // (unsigned content of i bits is signed content of i+1).
  {
    const auto r = ic_resize({3, Sign::Unsigned}, 8, 12, Sign::Signed);
    EXPECT_EQ(r, (InfoContent{3, Sign::Unsigned}));
  }
  // (ii) t == signed, t(N) == unsigned: io = min(w(e), w(N)), to = unsigned.
  {
    const auto r = ic_resize({3, Sign::Signed}, 8, 12, Sign::Unsigned);
    EXPECT_EQ(r, (InfoContent{8, Sign::Unsigned}));
  }
}

}  // namespace
}  // namespace dpmerge::analysis
