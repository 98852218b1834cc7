#include "dpmerge/synth/flow.h"

#include <gtest/gtest.h>

#include "dpmerge/check/check.h"
#include "dpmerge/designs/figures.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/verify.h"
#include "dfg_oracle.h"

namespace dpmerge::synth {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::Operand;
using netlist::Sta;

void expect_flow_correct(const Graph& g, Flow flow, std::uint64_t seed,
                         const std::string& what,
                         AdderArch arch = AdderArch::KoggeStone) {
  SynthOptions opt;
  opt.adder = arch;
  const FlowResult res = run_flow(g, flow, opt);
  const auto rep = check::verify(res.net);
  ASSERT_TRUE(rep.ok()) << what << ": " << rep.to_text();
  Rng rng(seed);
  std::string why;
  // NOTE: verify against the ORIGINAL graph — NewMerge transformed a copy.
  EXPECT_TRUE(verify_netlist(res.net, g, 24, rng, &why))
      << what << " [" << to_string(flow) << "]: " << why;
}

TEST(SynthFlow, SingleAdder) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s = b.add(9, Operand{a, 9, Sign::Signed},
                       Operand{c, 9, Sign::Signed});
  b.output("r", 9, Operand{s});
  for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
    expect_flow_correct(g, f, 500 + static_cast<int>(f), "single adder");
  }
}

TEST(SynthFlow, SingleSubtractAndNeg) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s = b.sub(9, Operand{a, 9, Sign::Signed},
                       Operand{c, 9, Sign::Signed});
  const auto n = b.neg(10, Operand{s, 10, Sign::Signed});
  b.output("r", 10, Operand{n});
  for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
    expect_flow_correct(g, f, 510 + static_cast<int>(f), "sub/neg");
  }
}

class SynthMultiplier
    : public ::testing::TestWithParam<std::tuple<Sign, Sign, int>> {};

TEST_P(SynthMultiplier, ProductCorrect) {
  const auto [sa, sb, w] = GetParam();
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 5, sa);
  const auto c = b.input("c", 4, sb);
  const auto m = b.mul(w, Operand{a, w, sa}, Operand{c, w, sb});
  b.output("r", w, Operand{m});
  for (Flow f : {Flow::NoMerge, Flow::NewMerge}) {
    expect_flow_correct(g, f, 520 + w + static_cast<int>(f), "multiplier");
  }
}

INSTANTIATE_TEST_SUITE_P(
    SignsAndWidths, SynthMultiplier,
    ::testing::Combine(::testing::Values(Sign::Unsigned, Sign::Signed),
                       ::testing::Values(Sign::Unsigned, Sign::Signed),
                       ::testing::Values(6, 9, 12)));

TEST(SynthFlow, FigureGraphsAllFlows) {
  int k = 0;
  for (const Graph& g : {designs::figure1_g2(), designs::figure2_g4(),
                         designs::figure3_g5(), designs::figure4_skewed_sum()}) {
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      expect_flow_correct(g, f, 600 + (k++), "figure graph");
    }
  }
}

TEST(SynthFlow, AllTestcasesAllFlowsEquivalent) {
  // The central integration test: every D1..D5 design synthesises to a
  // netlist equivalent to the DFG reference under all three flows.
  for (const auto& tc : designs::all_testcases()) {
    int k = 0;
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      expect_flow_correct(tc.graph, f, 700 + (k++), tc.name);
    }
  }
}

TEST(SynthFlow, RippleArchitectureAlsoCorrect) {
  for (const auto& tc : designs::all_testcases()) {
    expect_flow_correct(tc.graph, Flow::NewMerge, 800, tc.name,
                        AdderArch::Ripple);
  }
}

TEST(SynthFlow, QualityOrderOnTestcases) {
  // Shape assertions behind Table 1: the new flow never produces a slower
  // or bigger netlist than the old flow, which never beats the merged flows
  // by area; and cluster counts are monotone.
  Sta sta(netlist::CellLibrary::tsmc025());
  for (const auto& tc : designs::all_testcases()) {
    const auto none = run_flow(tc.graph, Flow::NoMerge);
    const auto old = run_flow(tc.graph, Flow::OldMerge);
    const auto neu = run_flow(tc.graph, Flow::NewMerge);
    const double d_none = sta.analyze(none.net).longest_path_ns;
    const double d_old = sta.analyze(old.net).longest_path_ns;
    const double d_new = sta.analyze(neu.net).longest_path_ns;
    EXPECT_LE(d_new, d_old * 1.001) << tc.name;
    EXPECT_LE(d_old, d_none * 1.001) << tc.name;
    EXPECT_LE(sta.area(neu.net), sta.area(old.net) * 1.001) << tc.name;
    EXPECT_LE(neu.partition.num_clusters(), old.partition.num_clusters())
        << tc.name;
  }
}

TEST(SynthFlow, D4NewMergeDramaticallySmaller) {
  // The D4/D5 story: redundant 32-bit widths collapse, so area shrinks by a
  // large factor versus the old flow.
  Sta sta(netlist::CellLibrary::tsmc025());
  const auto old = run_flow(designs::make_d4(), Flow::OldMerge);
  const auto neu = run_flow(designs::make_d4(), Flow::NewMerge);
  EXPECT_LT(sta.area(neu.net), 0.5 * sta.area(old.net));
}

TEST(SynthFlow, PrepareNewMergeShrinksD4ToContent) {
  // With the Huffman feedback loop, every operator in D4 ends at the true
  // ~10-bit content despite the skewed 32-bit chain.
  dfg::Graph g = designs::make_d4();
  const auto cr = prepare_new_merge(g);
  int max_w = 0;
  for (const auto& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind)) max_w = std::max(max_w, n.width);
  }
  EXPECT_LE(max_w, 12);
  EXPECT_EQ(cr.partition.num_clusters(), 1);
  Rng rng(4242);
  std::string why;
  EXPECT_TRUE(
      equivalent_by_simulation(designs::make_d4(), g, 24, rng, &why))
      << why;
}

// Property: random DFGs synthesise correctly under every flow and both
// final-adder architectures.
class SynthRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthRandom, RandomGraphsAllFlows) {
  Rng rng(GetParam());
  for (int t = 0; t < 4; ++t) {
    dfg::RandomGraphOptions ropt;
    ropt.num_operators = 10 + static_cast<int>(rng.uniform(0, 10));
    const Graph g = dfg::random_graph(rng, ropt);
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      expect_flow_correct(g, f, GetParam() * 1000 + t, "random graph");
      expect_flow_correct(g, f, GetParam() * 1000 + t + 500, "random graph",
                          AdderArch::Ripple);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthRandom,
                         ::testing::Values(81, 82, 83, 84, 85, 86, 87, 88, 89,
                                           90, 91, 92));

}  // namespace
}  // namespace dpmerge::synth
