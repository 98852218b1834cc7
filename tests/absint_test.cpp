// Property and unit tests for the known-bits and interval domains of the
// abstract interpreter (check::compute_absint) and the claim-refutation
// predicate behind the soundness lint: on random graphs and random stimuli,
// every concrete value the reference interpreter computes must be contained
// in the abstraction.

#include <gtest/gtest.h>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/check/absint_engine.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"

namespace dpmerge {
namespace {

using check::AbsFact;
using check::contains;
using dfg::Graph;
using dfg::NodeId;
using dfg::OpKind;

TEST(AbsintProperty, ContainsEveryConcreteValue) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
    dfg::RandomGraphOptions opt;
    opt.num_operators = 4 + static_cast<int>(seed % 13);
    opt.max_width = 4 + static_cast<int>(seed % 29);
    opt.cmp_fraction = 0.15;
    const Graph g = dfg::random_graph(rng, opt);
    const auto aa = check::compute_absint(g);
    const dfg::Evaluator ev(g);
    for (int trial = 0; trial < 8; ++trial) {
      const auto results = ev.run(ev.random_inputs(rng));
      for (const auto& n : g.nodes()) {
        EXPECT_TRUE(contains(aa.out(n.id),
                             results[static_cast<std::size_t>(n.id.value)]))
            << "seed " << seed << " trial " << trial << " node "
            << n.id.value;
      }
      for (const auto& e : g.edges()) {
        const BitVector& src = results[static_cast<std::size_t>(e.src.value)];
        const auto d = dfg::deliver(src, src.width(), e, g.node(e.dst),
                                    dfg::BitVectorOps{});
        EXPECT_TRUE(contains(aa.edge(e.id), d.carried))
            << "seed " << seed << " trial " << trial << " edge " << e.id.value;
        EXPECT_TRUE(contains(aa.operand(e.id), d.delivered))
            << "seed " << seed << " trial " << trial << " edge " << e.id.value;
      }
    }
  }
}

TEST(AbsintUnit, ConstantsAreExact) {
  Graph g;
  const NodeId c = g.add_const(BitVector::from_uint(8, 0xA5));
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(c, o, 0, 8, Sign::Unsigned);
  const auto aa = check::compute_absint(g);
  const AbsFact& av = aa.out(c);
  EXPECT_TRUE(av.bits.all_known());
  EXPECT_EQ(av.bits.value.to_uint64(), 0xA5u);
  EXPECT_TRUE(av.range.valid);
  EXPECT_EQ(static_cast<std::uint64_t>(av.range.lo), 0xA5u);
  EXPECT_EQ(static_cast<std::uint64_t>(av.range.hi), 0xA5u);
}

TEST(AbsintUnit, ConstantAddFolds) {
  Graph g;
  const NodeId a = g.add_const(BitVector::from_uint(8, 40));
  const NodeId b = g.add_const(BitVector::from_uint(8, 2));
  const NodeId s = g.add_node(OpKind::Add, 8);
  g.add_edge(a, s, 0, 8, Sign::Unsigned);
  g.add_edge(b, s, 1, 8, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(s, o, 0, 8, Sign::Unsigned);
  const auto aa = check::compute_absint(g);
  EXPECT_TRUE(aa.out(s).bits.all_known());
  EXPECT_EQ(aa.out(s).bits.value.to_uint64(), 42u);
}

TEST(AbsintUnit, ShlPinsLowBitsToZero) {
  Graph g;
  const NodeId x = g.add_node(OpKind::Input, 8, "x");
  const NodeId sh = g.add_node(OpKind::Shl, 8);
  g.set_node_shift(sh, 3);
  g.add_edge(x, sh, 0, 8, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(sh, o, 0, 8, Sign::Unsigned);
  const auto aa = check::compute_absint(g);
  const auto& kb = aa.out(sh).bits;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(kb.known.bit(i));
    EXPECT_FALSE(kb.value.bit(i));
  }
  EXPECT_FALSE(kb.known.bit(3));
  EXPECT_EQ(kb.known_trailing_zeros(), 3);
}

TEST(AbsintUnit, ZeroExtensionPinsHighBits) {
  Graph g;
  const NodeId x = g.add_node(OpKind::Input, 4, "x");
  const NodeId ext = g.add_node(OpKind::Extension, 8);
  g.set_node_ext_sign(ext, Sign::Unsigned);
  g.add_edge(x, ext, 0, 4, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(ext, o, 0, 8, Sign::Unsigned);
  const auto aa = check::compute_absint(g);
  const auto& kb = aa.out(ext).bits;
  for (int i = 4; i < 8; ++i) {
    EXPECT_TRUE(kb.known.bit(i)) << i;
    EXPECT_FALSE(kb.value.bit(i)) << i;
  }
  const auto& itv = aa.out(ext).range;
  ASSERT_TRUE(itv.valid);
  EXPECT_EQ(static_cast<std::uint64_t>(itv.hi), 15u);
}

TEST(AbsintUnit, ComparatorIsDecidedByDisjointIntervals) {
  // x:u4 zero-extended to 8 bits is always < 16; 200 is a constant.
  Graph g;
  const NodeId x = g.add_node(OpKind::Input, 4, "x");
  const NodeId c = g.add_const(BitVector::from_uint(8, 200));
  const NodeId lt = g.add_node(OpKind::LtU, 8);
  g.add_edge(x, lt, 0, 8, Sign::Unsigned);
  g.add_edge(c, lt, 1, 8, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(lt, o, 0, 1, Sign::Unsigned);
  const auto aa = check::compute_absint(g);
  const auto& kb = aa.out(lt).bits;
  EXPECT_TRUE(kb.all_known());
  EXPECT_EQ(kb.value.to_uint64(), 1u);  // always true
}

TEST(AbsintUnit, ContradictsUnsignedClaim) {
  const auto av = AbsFact::constant(BitVector::from_uint(8, 255)).value();
  EXPECT_TRUE(check::contradicts(av, {4, Sign::Unsigned}));
  EXPECT_FALSE(check::contradicts(av, {8, Sign::Unsigned}));
  // 15 genuinely fits in 4 unsigned bits.
  const auto small = AbsFact::constant(BitVector::from_uint(8, 15)).value();
  EXPECT_FALSE(check::contradicts(small, {4, Sign::Unsigned}));
}

TEST(AbsintUnit, ContradictsSignedClaim) {
  // 0b0111_1111 = 127: a signed 4-bit claim needs bits [3,8) all equal,
  // but bit 3..6 are 1 and bit 7 is 0.
  const auto av = AbsFact::constant(BitVector::from_uint(8, 127)).value();
  EXPECT_TRUE(check::contradicts(av, {4, Sign::Signed}));
  EXPECT_FALSE(check::contradicts(av, {8, Sign::Signed}));
  // -4 = 0b1111_1100 is a sound signed-3 (even signed-4) claim.
  const auto neg = AbsFact::constant(BitVector::from_uint(8, 0xFC)).value();
  EXPECT_FALSE(check::contradicts(neg, {3, Sign::Signed}));
  EXPECT_TRUE(check::contradicts(neg, {1, Sign::Signed}));
}

TEST(AbsintUnit, TopContradictsNothing) {
  const auto av = AbsFact::top(16).value();
  for (int w = 0; w <= 16; ++w) {
    EXPECT_FALSE(check::contradicts(av, {w, Sign::Unsigned})) << w;
    if (w >= 1) {
      EXPECT_FALSE(check::contradicts(av, {w, Sign::Signed})) << w;
    }
  }
}

}  // namespace
}  // namespace dpmerge
