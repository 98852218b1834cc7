#include "dpmerge/transform/rebalance.h"

#include <gtest/gtest.h>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/flow.h"
#include "dfg_oracle.h"

namespace dpmerge::transform {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;

Graph skewed_chain(int n_inputs, int width) {
  Graph g;
  Builder b(g);
  NodeId acc = b.input("x0", 8, Sign::Unsigned);
  for (int i = 1; i < n_inputs; ++i) {
    const auto x =
        b.input(std::string("x").append(std::to_string(i)), 8, Sign::Unsigned);
    acc = b.add(width, Operand{acc, width, Sign::Unsigned},
                Operand{x, width, Sign::Unsigned});
  }
  b.output("y", width, Operand{acc});
  return g;
}

TEST(Rebalance, ChainBecomesLogDepth) {
  const Graph g = skewed_chain(16, 14);
  RebalanceStats st;
  const Graph r = rebalance_clusters(g, &st);
  EXPECT_TRUE(r.validate().empty());
  EXPECT_EQ(st.max_depth_before, 15);
  EXPECT_LE(st.max_depth_after, 5);  // ceil(log2 16) + slack
  EXPECT_EQ(st.clusters_rebuilt, 1);
  Rng rng(1);
  std::string why;
  EXPECT_TRUE(equivalent_by_simulation(g, r, 32, rng, &why)) << why;
}

TEST(Rebalance, PreservesInterface) {
  const Graph g = designs::make_d3();
  const Graph r = rebalance_clusters(g);
  EXPECT_EQ(r.inputs().size(), g.inputs().size());
  EXPECT_EQ(r.outputs().size(), g.outputs().size());
  for (std::size_t i = 0; i < g.inputs().size(); ++i) {
    EXPECT_EQ(r.name(r.inputs()[i]), g.name(g.inputs()[i]));
    EXPECT_EQ(r.node(r.inputs()[i]).width, g.node(g.inputs()[i]).width);
  }
}

TEST(Rebalance, SubtractionsAndNegations) {
  // y = a - b - c - d + e: signs must survive the re-association.
  Graph g;
  Builder b(g);
  NodeId acc = b.input("a", 8);
  const char* names[] = {"b", "c", "d"};
  for (const char* nm : names) {
    acc = b.sub(12, Operand{acc, 12, Sign::Signed},
                Operand{b.input(nm, 8), 12, Sign::Signed});
  }
  acc = b.add(12, Operand{acc, 12, Sign::Signed},
              Operand{b.input("e", 8), 12, Sign::Signed});
  b.output("y", 12, Operand{acc});
  const Graph r = rebalance_clusters(g);
  EXPECT_TRUE(r.validate().empty());
  Rng rng(2);
  std::string why;
  EXPECT_TRUE(equivalent_by_simulation(g, r, 48, rng, &why)) << why;
}

TEST(Rebalance, KeepsMultipliersAsLeaves) {
  const Graph g = designs::make_d3();
  const Graph r = rebalance_clusters(g);
  int muls_g = 0, muls_r = 0;
  for (const auto& n : g.nodes()) muls_g += n.kind == dfg::OpKind::Mul;
  for (const auto& n : r.nodes()) muls_r += n.kind == dfg::OpKind::Mul;
  EXPECT_EQ(muls_g, muls_r);
  Rng rng(3);
  std::string why;
  EXPECT_TRUE(equivalent_by_simulation(g, r, 32, rng, &why)) << why;
}

TEST(Rebalance, ImprovesNoMergeDelayOnSkewedChain) {
  // The motivating use: ahead of a non-merging flow, rebalancing shortens
  // the adder chain from linear to logarithmic depth.
  const Graph g = skewed_chain(16, 14);
  const Graph r = rebalance_clusters(g);
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  const auto before = synth::run_flow(g, synth::Flow::NoMerge);
  const auto after = synth::run_flow(r, synth::Flow::NoMerge);
  EXPECT_LT(sta.analyze(after.net).longest_path_ns,
            0.5 * sta.analyze(before.net).longest_path_ns);
}

TEST(Rebalance, DesignsStayEquivalent) {
  int seed = 100;
  for (const auto& tc : designs::all_testcases()) {
    const Graph r = rebalance_clusters(tc.graph);
    const auto errs = r.validate();
    ASSERT_TRUE(errs.empty()) << tc.name << ": " << errs.front();
    Rng rng(static_cast<std::uint64_t>(seed++));
    std::string why;
    EXPECT_TRUE(equivalent_by_simulation(tc.graph, r, 24, rng, &why))
        << tc.name << ": " << why;
  }
}

class RebalanceRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RebalanceRandom, Equivalent) {
  Rng rng(GetParam());
  for (int t = 0; t < 5; ++t) {
    const Graph g = dfg::random_graph(rng);
    const Graph r = rebalance_clusters(g);
    const auto errs = r.validate();
    ASSERT_TRUE(errs.empty()) << errs.front();
    Rng vr(GetParam() * 17 + t);
    std::string why;
    ASSERT_TRUE(equivalent_by_simulation(g, r, 24, vr, &why)) << why;
    // The Huffman order optimises the information-content bound, not depth,
    // so mixed-width terms can cost a level or two — but never a blowup.
    EXPECT_LE(arith_depth(r), arith_depth(g) + 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebalanceRandom,
                         ::testing::Values(901, 902, 903, 904, 905, 906, 907,
                                           908, 909, 910));

}  // namespace
}  // namespace dpmerge::transform
