#include "dpmerge/analysis/info_content.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "dpmerge/designs/figures.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"

namespace dpmerge::analysis {
namespace {

using dfg::Builder;
using dfg::Graph;
using dfg::Operand;

constexpr Sign U = Sign::Unsigned;
constexpr Sign S = Sign::Signed;

TEST(InfoContentAlgebra, AddSameSign) {
  // Lemma 5.4: <max{m1, m2} + 1, t>.
  EXPECT_EQ(ic_add({4, U}, {6, U}), (InfoContent{7, U}));
  EXPECT_EQ(ic_add({5, S}, {5, S}), (InfoContent{6, S}));
}

TEST(InfoContentAlgebra, AddMixedSignUsesSoundRule) {
  // DESIGN.md §2: <2,s> + <2,u> can reach 1 + 3 = 4, which needs <4,s>; the
  // paper's literal <3,s> would be unsound.
  EXPECT_EQ(ic_add({2, S}, {2, U}), (InfoContent{4, S}));
  EXPECT_EQ(ic_add({2, U}, {2, S}), (InfoContent{4, S}));
  // When the signed side dominates, no penalty beyond max+1.
  EXPECT_EQ(ic_add({8, S}, {2, U}), (InfoContent{9, S}));
}

TEST(InfoContentAlgebra, AddZeroIsIdentity) {
  EXPECT_EQ(ic_add({0, U}, {5, S}), (InfoContent{5, S}));
  EXPECT_EQ(ic_add({7, U}, {0, U}), (InfoContent{7, U}));
}

TEST(InfoContentAlgebra, SubIsSigned) {
  EXPECT_EQ(ic_sub({4, U}, {4, U}), (InfoContent{5, S}));
  EXPECT_EQ(ic_sub({4, S}, {6, S}), (InfoContent{7, S}));
  EXPECT_EQ(ic_sub({4, U}, {4, S}), (InfoContent{6, S}));
  EXPECT_EQ(ic_sub({6, S}, {2, U}), (InfoContent{7, S}));
}

TEST(InfoContentAlgebra, Mul) {
  EXPECT_EQ(ic_mul({4, U}, {6, U}), (InfoContent{10, U}));
  EXPECT_EQ(ic_mul({4, S}, {6, S}), (InfoContent{10, S}));
  EXPECT_EQ(ic_mul({4, U}, {6, S}), (InfoContent{10, S}));
  EXPECT_EQ(ic_mul({0, U}, {6, S}), (InfoContent{0, U}));
}

TEST(InfoContentAlgebra, Neg) {
  EXPECT_EQ(ic_neg({4, U}), (InfoContent{5, S}));
  EXPECT_EQ(ic_neg({4, S}), (InfoContent{5, S}));
  EXPECT_EQ(ic_neg({0, U}), (InfoContent{0, U}));
}

TEST(InfoContentAlgebra, MeetAndClip) {
  EXPECT_EQ(ic_meet({4, U}, {6, S}), (InfoContent{4, U}));
  EXPECT_EQ(ic_meet({7, S}, {3, U}), (InfoContent{3, U}));
  EXPECT_EQ(ic_clip({9, S}, 6), (InfoContent{6, S}));
  EXPECT_EQ(ic_clip({4, S}, 6), (InfoContent{4, S}));
}

// Exhaustive soundness of the tuple algebra: for every (i1,t1,i2,t2) with
// widths <= 5, every representable operand pair stays within the claimed
// result tuple.
TEST(InfoContentAlgebra, ExhaustiveSoundnessSmall) {
  auto lo = [](InfoContent c) -> std::int64_t {
    return c.sign == U ? 0 : -(std::int64_t{1} << (c.width - 1));
  };
  auto hi = [](InfoContent c) -> std::int64_t {
    return c.sign == U ? (std::int64_t{1} << c.width) - 1
                       : (std::int64_t{1} << (c.width - 1)) - 1;
  };
  auto contains = [&](InfoContent c, std::int64_t v) {
    if (c.width == 0) return v == 0;
    return v >= lo(c) && v <= hi(c);
  };
  for (int i1 = 1; i1 <= 5; ++i1) {
    for (int i2 = 1; i2 <= 5; ++i2) {
      for (Sign t1 : {U, S}) {
        for (Sign t2 : {U, S}) {
          const InfoContent a{i1, t1}, b{i2, t2};
          for (std::int64_t x = lo(a); x <= hi(a); ++x) {
            for (std::int64_t y = lo(b); y <= hi(b); ++y) {
              EXPECT_TRUE(contains(ic_add(a, b), x + y))
                  << a.to_string() << "+" << b.to_string() << " " << x << "," << y;
              EXPECT_TRUE(contains(ic_sub(a, b), x - y))
                  << a.to_string() << "-" << b.to_string() << " " << x << "," << y;
              EXPECT_TRUE(contains(ic_mul(a, b), x * y))
                  << a.to_string() << "*" << b.to_string() << " " << x << "," << y;
            }
            EXPECT_TRUE(contains(ic_neg(a), -x));
          }
        }
      }
    }
  }
}

TEST(IcResize, TruncationKeepsClaim) {
  EXPECT_EQ(ic_resize({3, S}, 8, 5, U), (InfoContent{3, S}));
  EXPECT_EQ(ic_resize({6, S}, 8, 4, S).width, 4);
}

TEST(IcResize, VacuousClaimGetsEdgeSign) {
  EXPECT_EQ(ic_resize({8, U}, 8, 12, S), (InfoContent{8, S}));
  EXPECT_EQ(ic_resize({8, S}, 8, 12, U), (InfoContent{8, U}));
}

TEST(IcResize, SameSignExtension) {
  EXPECT_EQ(ic_resize({3, S}, 8, 12, S), (InfoContent{3, S}));
  EXPECT_EQ(ic_resize({3, U}, 8, 12, U), (InfoContent{3, U}));
}

TEST(IcResize, InterestingCaseUnsignedAcrossSignedEdge) {
  // Section 5's "interesting case": strict unsigned content crossing a
  // signed extension stays unsigned.
  EXPECT_EQ(ic_resize({3, U}, 8, 12, S), (InfoContent{3, U}));
}

TEST(IcResize, SignedContentZeroPadded) {
  // Signed content zero-padded loses structure above the original carrier.
  EXPECT_EQ(ic_resize({3, S}, 8, 12, U), (InfoContent{8, U}));
}

TEST(InfoPropagation, Figure3Walkthrough) {
  // Section 5's narrative: N1/N2 carry 4-bit sums, N3 a 5-bit sum, and the
  // operand entering N4 via e7 is a sign-extension of a 5-bit sum.
  const Graph g = designs::figure3_g5();
  const auto f = designs::figure_nodes(g);
  const auto ia = compute_info_content(g);
  EXPECT_EQ(ia.out(f.n1), (InfoContent{4, S}));
  EXPECT_EQ(ia.out(f.n2), (InfoContent{4, S}));
  EXPECT_EQ(ia.out(f.n3), (InfoContent{5, S}));
  // e7 is n4's first in-edge.
  const auto e7 = g.node(f.n4).in[0];
  EXPECT_EQ(ia.operand(e7), (InfoContent{5, S}));
  EXPECT_EQ(ia.intr(f.n4), (InfoContent{10, S}));
}

TEST(InfoPropagation, Figure1TruncationClipsClaim) {
  const Graph g = designs::figure1_g2();
  const auto f = designs::figure_nodes(g);
  const auto ia = compute_info_content(g);
  // The operands are delivered at w(N1) = 7, so the intrinsic sum claim is
  // 8 bits (the paper's "9-bit sum" counts the pre-truncation 8-bit
  // operands); either way it exceeds w(N1) = 7 — information is lost.
  EXPECT_EQ(ia.intr(f.n1), (InfoContent{8, S}));
  EXPECT_GT(ia.intr(f.n1).width, g.node(f.n1).width);
  EXPECT_EQ(ia.out(f.n1), (InfoContent{7, S}));  // clipped by w(N1)=7
}

TEST(InfoPropagation, RefinementsTightenIntrinsic) {
  const Graph g = designs::figure1_g2();
  const auto f = designs::figure_nodes(g);
  InfoRefinements refs(static_cast<std::size_t>(g.node_count()));
  refs[static_cast<std::size_t>(f.n1.value)] = InfoContent{6, S};
  const auto ia = compute_info_content(g, refs);
  EXPECT_EQ(ia.intr(f.n1), (InfoContent{6, S}));
  EXPECT_EQ(ia.out(f.n1), (InfoContent{6, S}));
}

TEST(InfoPropagation, ConstClaimIsMinimal) {
  Graph g;
  Builder b(g);
  const auto k = b.constant(16, 5);
  const auto a = b.input("a", 16);
  const auto s = b.add(17, Operand{a, 17, S}, Operand{k, 17, S});
  b.output("r", 17, Operand{s});
  const auto ia = compute_info_content(g);
  EXPECT_EQ(ia.out(k), (InfoContent{3, U}));

  Graph g2;
  Builder b2(g2);
  const auto kn = b2.constant(16, -3);
  b2.output("r", 16, Operand{kn});
  const auto ia2 = compute_info_content(g2);
  EXPECT_EQ(ia2.out(kn), (InfoContent{3, S}));
}

// Soundness property (the heart of Definition 5.1): on random DFGs and
// random stimuli, every node result, carried edge value and delivered
// operand is a t-extension of its claimed i least significant bits.
class IcSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IcSoundness, ClaimsHoldOnRandomStimuli) {
  Rng rng(GetParam());
  const Graph g = dfg::random_graph(rng);
  const auto ia = compute_info_content(g);
  dfg::Evaluator ev(g);
  for (int trial = 0; trial < 50; ++trial) {
    const auto results = ev.run(ev.random_inputs(rng));
    for (const auto& n : g.nodes()) {
      const auto claim = ia.out(n.id);
      const auto& v = results[static_cast<std::size_t>(n.id.value)];
      ASSERT_LE(claim.width, v.width());
      EXPECT_TRUE(v.is_extension_of_low(claim.width, claim.sign))
          << "node " << n.id.value << " claim " << claim.to_string()
          << " value " << v.to_string();
    }
    for (const auto& e : g.edges()) {
      const BitVector& src = results[static_cast<std::size_t>(e.src.value)];
      const auto [carried, op] = dfg::deliver(src, src.width(), e,
                                              g.node(e.dst), dfg::BitVectorOps{});
      const auto cl_e = ia.edge(e.id);
      EXPECT_TRUE(carried.is_extension_of_low(cl_e.width, cl_e.sign))
          << "edge " << e.id.value << " claim " << cl_e.to_string()
          << " carried " << carried.to_string();
      const auto cl_o = ia.operand(e.id);
      EXPECT_TRUE(op.is_extension_of_low(cl_o.width, cl_o.sign))
          << "edge " << e.id.value << " operand claim " << cl_o.to_string()
          << " operand " << op.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcSoundness,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19,
                                           20, 21, 22));

}  // namespace
}  // namespace dpmerge::analysis
