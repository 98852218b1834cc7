#include "dpmerge/transform/const_fold.h"

#include <gtest/gtest.h>

#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/formal/equiv.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/synth/flow.h"
#include "dfg_oracle.h"

namespace dpmerge::transform {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::OpKind;
using dfg::Operand;

int count_kind(const Graph& g, OpKind k) {
  int c = 0;
  for (const auto& n : g.nodes()) c += n.kind == k;
  return c;
}

void expect_equiv(const Graph& a, const Graph& b, std::uint64_t seed) {
  Rng rng(seed);
  std::string why;
  EXPECT_TRUE(equivalent_by_simulation(a, b, 32, rng, &why)) << why;
  EXPECT_TRUE(b.validate().empty());
}

TEST(ConstFold, EvaluatesAllConstantCones) {
  Graph g;
  Builder b(g);
  const auto k1 = b.constant(8, 5);
  const auto k2 = b.constant(8, 7);
  const auto s = b.add(9, Operand{k1, 9, Sign::Signed},
                       Operand{k2, 9, Sign::Signed});
  const auto a = b.input("a", 8);
  const auto t = b.add(10, Operand{s, 10, Sign::Signed},
                       Operand{a, 10, Sign::Signed});
  b.output("r", 10, Operand{t});
  FoldStats st;
  const Graph f = fold_constants(g, &st);
  EXPECT_EQ(st.constants_folded, 1);
  EXPECT_EQ(count_kind(f, OpKind::Add), 1);  // only the a + 12 remains
  expect_equiv(g, f, 1);
}

TEST(ConstFold, AgreesWithEvaluatorOnEveryOperator) {
  // One all-constant cone per operator kind, with random node, edge and
  // constant widths and signs, so the delivered-operand resizes vary too.
  Rng rng(2024);
  for (const dfg::OpInfo& op : dfg::kOps) {
    if (!dfg::is_operator(op.kind)) continue;
    for (int trial = 0; trial < 40; ++trial) {
      Graph g;
      auto width = [&rng] { return static_cast<int>(rng.uniform(1, 16)); };
      auto sign = [&rng] {
        return rng.chance(0.5) ? Sign::Signed : Sign::Unsigned;
      };
      const int w = width();
      const dfg::NodeId n = g.add_node(op.kind, w);
      if (op.kind == OpKind::Shl) {
        g.set_node_shift(n, static_cast<int>(rng.uniform(0, 5)));
      }
      g.set_node_ext_sign(n, sign());
      for (int p = 0; p < op.operands; ++p) {
        g.add_edge(g.add_const(rng.bits(width())), n, p, width(), sign());
      }
      g.add_edge(n, g.add_node(OpKind::Output, w, "r"), 0);
      FoldStats st;
      const Graph f = fold_constants(g, &st);
      EXPECT_EQ(st.constants_folded, 1) << op.name;
      EXPECT_EQ(count_kind(f, op.kind), 0) << op.name;
      const auto want = dfg::Evaluator(g).run_outputs({});
      const auto got = dfg::Evaluator(f).run_outputs({});
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], want[0]) << op.name << " trial " << trial;
    }
  }
}

TEST(ConstFold, MulByPowerOfTwoBecomesShift) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto k = b.constant(8, 8);
  const auto m = b.mul(12, Operand{a, 12, Sign::Signed},
                       Operand{k, 12, Sign::Signed});
  b.output("r", 12, Operand{m});
  FoldStats st;
  const Graph f = fold_constants(g, &st);
  EXPECT_EQ(st.strength_reduced, 1);
  EXPECT_EQ(count_kind(f, OpKind::Mul), 0);
  EXPECT_EQ(count_kind(f, OpKind::Shl), 1);
  expect_equiv(g, f, 2);
}

TEST(ConstFold, MulByOneAndZero) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto one = b.constant(4, 1);
  const auto zero = b.constant(4, 0);
  const auto m1 = b.mul(10, Operand{a, 10, Sign::Signed},
                        Operand{one, 10, Sign::Unsigned});
  const auto m0 = b.mul(10, Operand{a, 10, Sign::Signed},
                        Operand{zero, 10, Sign::Unsigned});
  const auto t = b.add(11, Operand{m1, 11, Sign::Signed},
                       Operand{m0, 11, Sign::Signed});
  b.output("r", 11, Operand{t});
  FoldStats st;
  const Graph f = fold_constants(g, &st);
  EXPECT_EQ(count_kind(f, OpKind::Mul), 0);
  EXPECT_GE(st.identities_removed, 2);
  expect_equiv(g, f, 3);
}

TEST(ConstFold, MulByMinusOneBecomesNeg) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto minus1 = b.constant(4, -1);
  const auto m = b.mul(10, Operand{a, 10, Sign::Signed},
                       Operand{minus1, 10, Sign::Signed});
  b.output("r", 10, Operand{m});
  FoldStats st;
  const Graph f = fold_constants(g, &st);
  EXPECT_EQ(count_kind(f, OpKind::Mul), 0);
  EXPECT_EQ(count_kind(f, OpKind::Neg), 1);
  expect_equiv(g, f, 4);
}

TEST(ConstFold, AddZeroAndSubSelf) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto zero = b.constant(4, 0);
  const auto s = b.add(9, Operand{a, 9, Sign::Signed},
                       Operand{zero, 9, Sign::Unsigned});
  const auto d = b.sub(9, Operand{a, 9, Sign::Signed},
                       Operand{a, 9, Sign::Signed});
  const auto t = b.add(10, Operand{s, 10, Sign::Signed},
                       Operand{d, 10, Sign::Signed});
  b.output("r", 10, Operand{t});
  FoldStats st;
  const Graph f = fold_constants(g, &st);
  EXPECT_GE(st.identities_removed, 2);
  EXPECT_EQ(count_kind(f, OpKind::Sub), 0);
  expect_equiv(g, f, 5);
}

TEST(ConstFold, StrengthReductionEnablesMerging) {
  // y = 8*x0 + x1: as a multiplier, x0's path can't merge through the
  // operand boundary; as a shift it merges into one cluster — the practical
  // payoff of strength reduction in the merging flow.
  const auto res = frontend::compile(R"(
input x0 : s8
input x1 : s8
let t = x0 + x1
output y : s16 = 8 * t + x1
)");
  const Graph folded = fold_constants(res.graph);
  EXPECT_EQ(count_kind(folded, OpKind::Mul), 0);
  Graph before = res.graph;
  Graph after = folded;
  const auto p_before = cluster::cluster_maximal(before);
  const auto p_after = cluster::cluster_maximal(after);
  EXPECT_LT(p_after.partition.num_clusters(),
            p_before.partition.num_clusters());
  EXPECT_EQ(p_after.partition.num_clusters(), 1);
  expect_equiv(res.graph, folded, 6);
}

TEST(ConstFold, DeadLogicEliminated) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto zero = b.constant(4, 0);
  // This whole product is multiplied by zero; its cone must vanish.
  const auto dead = b.mul(16, Operand{a, 16, Sign::Signed},
                          Operand{a, 16, Sign::Signed});
  const auto m0 = b.mul(16, Operand{dead, 16, Sign::Signed},
                        Operand{zero, 16, Sign::Unsigned});
  const auto t = b.add(17, Operand{a, 17, Sign::Signed},
                       Operand{m0, 17, Sign::Signed});
  b.output("r", 17, Operand{t});
  const Graph f = fold_constants(g);
  EXPECT_EQ(count_kind(f, OpKind::Mul), 0);
  // Inputs stay (interface) even when dead elsewhere.
  EXPECT_EQ(f.inputs().size(), g.inputs().size());
  expect_equiv(g, f, 7);
}

TEST(ConstFold, FormalProofOnCoefficientKernel) {
  const auto res = frontend::compile(R"(
input x : s6
output y : s12 = 4 * x + 2 * x + x
)");
  const Graph f = fold_constants(res.graph);
  EXPECT_EQ(count_kind(f, OpKind::Mul), 0);
  const auto eq = formal::check_graph_vs_graph(res.graph, f);
  EXPECT_TRUE(eq.equivalent()) << eq.detail;
}

class ConstFoldRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConstFoldRandom, EquivalentOnRandomGraphs) {
  Rng rng(GetParam());
  for (int t = 0; t < 6; ++t) {
    const Graph g = dfg::random_graph(rng);
    FoldStats st;
    const Graph f = fold_constants(g, &st);
    expect_equiv(g, f, GetParam() * 11 + t);
    // Idempotent after one round (no new constants appear).
    FoldStats st2;
    const Graph f2 = fold_constants(f, &st2);
    EXPECT_FALSE(st2.changed());
    expect_equiv(f, f2, GetParam() * 11 + t + 100);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstFoldRandom,
                         ::testing::Values(121, 122, 123, 124, 125, 126));

}  // namespace
}  // namespace dpmerge::transform
