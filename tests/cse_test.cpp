#include "dpmerge/transform/cse.h"

#include <gtest/gtest.h>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "dfg_oracle.h"

namespace dpmerge::transform {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::OpKind;
using dfg::Operand;

void expect_equiv(const Graph& a, const Graph& b, std::uint64_t seed) {
  Rng rng(seed);
  std::string why;
  EXPECT_TRUE(equivalent_by_simulation(a, b, 32, rng, &why)) << why;
  EXPECT_TRUE(b.validate().empty());
}

TEST(Cse, MergesIdenticalAdders) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s1 = b.add(9, Operand{a, 9, Sign::Signed},
                        Operand{c, 9, Sign::Signed});
  const auto s2 = b.add(9, Operand{a, 9, Sign::Signed},
                        Operand{c, 9, Sign::Signed});
  const auto t = b.mul(18, Operand{s1, 18, Sign::Signed},
                       Operand{s2, 18, Sign::Signed});
  b.output("r", 18, Operand{t});
  CseStats st;
  const Graph f = share_common_subexpressions(g, &st);
  EXPECT_EQ(st.nodes_merged, 1);
  int adds = 0;
  for (const auto& n : f.nodes()) adds += n.kind == OpKind::Add;
  EXPECT_EQ(adds, 1);  // (a+c)^2 with one shared adder
  expect_equiv(g, f, 1);
}

TEST(Cse, CommutativeOperandsNormalise) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s1 = b.add(9, Operand{a, 9, Sign::Signed},
                        Operand{c, 9, Sign::Signed});
  const auto s2 = b.add(9, Operand{c, 9, Sign::Signed},
                        Operand{a, 9, Sign::Signed});  // operands swapped
  const auto t = b.sub(10, Operand{s1, 10, Sign::Signed},
                       Operand{s2, 10, Sign::Signed});
  b.output("r", 10, Operand{t});
  CseStats st;
  const Graph f = share_common_subexpressions(g, &st);
  EXPECT_EQ(st.nodes_merged, 1);
  expect_equiv(g, f, 2);
}

TEST(Cse, SubIsNotCommutative) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s1 = b.sub(9, Operand{a, 9, Sign::Signed},
                        Operand{c, 9, Sign::Signed});
  const auto s2 = b.sub(9, Operand{c, 9, Sign::Signed},
                        Operand{a, 9, Sign::Signed});
  const auto t = b.add(10, Operand{s1, 10, Sign::Signed},
                       Operand{s2, 10, Sign::Signed});
  b.output("r", 10, Operand{t});
  CseStats st;
  const Graph f = share_common_subexpressions(g, &st);
  EXPECT_EQ(st.nodes_merged, 0);
  expect_equiv(g, f, 3);
}

TEST(Cse, DifferentEdgeSignsDoNotMerge) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto s1 = b.add(12, Operand{a, 12, Sign::Signed},
                        Operand{a, 12, Sign::Signed});
  const auto s2 = b.add(12, Operand{a, 12, Sign::Unsigned},
                        Operand{a, 12, Sign::Unsigned});
  const auto t = b.sub(13, Operand{s1, 13, Sign::Signed},
                       Operand{s2, 13, Sign::Signed});
  b.output("r", 13, Operand{t});
  CseStats st;
  const Graph f = share_common_subexpressions(g, &st);
  EXPECT_EQ(st.nodes_merged, 0);  // sign-extended vs zero-extended operands
  expect_equiv(g, f, 4);
}

TEST(Cse, MergesDuplicateLiterals) {
  // The frontend creates one Const per literal occurrence; CSE shares them.
  const auto res = frontend::compile(R"(
input x : s8
output y : s16 = 7 * x + 7 * x
)");
  CseStats st;
  const Graph f = share_common_subexpressions(res.graph, &st);
  EXPECT_GE(st.nodes_merged, 2);  // the 7 const and the 7*x product
  expect_equiv(res.graph, f, 5);
}

class CseRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CseRandom, EquivalentAndSynthesizable) {
  Rng rng(GetParam());
  for (int t = 0; t < 5; ++t) {
    const Graph g = dfg::random_graph(rng);
    CseStats st;
    const Graph f = share_common_subexpressions(g, &st);
    expect_equiv(g, f, GetParam() * 5 + t);
    // The shared graph still synthesises correctly under every flow.
    for (auto flow : {synth::Flow::OldMerge, synth::Flow::NewMerge}) {
      const auto fr = synth::run_flow(f, flow);
      Rng vr(GetParam() * 5 + t + 50);
      std::string why;
      ASSERT_TRUE(synth::verify_netlist(fr.net, g, 16, vr, &why)) << why;
    }
    // Idempotent.
    CseStats st2;
    share_common_subexpressions(f, &st2);
    EXPECT_EQ(st2.nodes_merged, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CseRandom,
                         ::testing::Values(131, 132, 133, 134, 135));

}  // namespace
}  // namespace dpmerge::transform
