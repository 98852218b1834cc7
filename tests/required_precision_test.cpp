#include "dpmerge/analysis/required_precision.h"

#include <gtest/gtest.h>

#include "dpmerge/designs/figures.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dfg_oracle.h"

namespace dpmerge::analysis {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;

TEST(RequiredPrecision, OutputNodeBaseCase) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 16);
  const auto o = b.output("r", 7, Operand{a, 7});
  const auto rp = compute_required_precision(g);
  EXPECT_EQ(rp.r_in(o), 7);
  EXPECT_EQ(rp.r_out(a), 7);
}

TEST(RequiredPrecision, MinAlongPath) {
  // a -> add(w=12) -> output(w=10) through an 8-bit edge: r is limited by
  // the narrowest hop.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 16);
  const auto c = b.input("c", 16);
  const auto s = b.add(12, Operand{a, 12}, Operand{c, 12});
  b.output("r", 10, Operand{s, 8});
  const auto rp = compute_required_precision(g);
  EXPECT_EQ(rp.r_out(s), 8);  // min(w(e)=8, r_in(out)=10)
  EXPECT_EQ(rp.r_in(s), 8);   // min(r_out, w(N)=12)
  EXPECT_EQ(rp.r_out(a), 8);
}

TEST(RequiredPrecision, MaxOverFanout) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 16);
  const auto s = b.add(16, Operand{a}, Operand{a});
  b.output("narrow", 4, Operand{s, 4});
  b.output("wide", 13, Operand{s, 13});
  const auto rp = compute_required_precision(g);
  EXPECT_EQ(rp.r_out(s), 13);  // the widest consumer wins
}

TEST(RequiredPrecision, NodeWidthCapsInputPorts) {
  // A narrow operator caps the precision required of its operands even when
  // its own result is consumed wide.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 16);
  const auto t = b.add(6, Operand{a}, Operand{a});  // 6-bit bottleneck
  const auto s = b.add(16, Operand{t, 16, Sign::Signed}, Operand{a});
  b.output("r", 16, Operand{s});
  const auto rp = compute_required_precision(g);
  EXPECT_EQ(rp.r_out(t), 16);  // consumer wants 16 ...
  EXPECT_EQ(rp.r_in(t), 6);    // ... but the node only keeps 6
  EXPECT_EQ(rp.r_out(a), 16);  // via the direct path to s
}

TEST(RequiredPrecision, Figure2AllFive) {
  // G4 (Figure 2a): the 5-bit output makes the required precision of every
  // signal in the graph 5 bits (Section 4's walkthrough).
  const Graph g = designs::figure2_g4();
  const auto rp = compute_required_precision(g);
  const auto f = designs::figure_nodes(g);
  for (NodeId n : {f.n1, f.n2, f.n3, f.n4}) {
    EXPECT_EQ(rp.r_in(n), 5) << "node " << n.value;
    EXPECT_EQ(rp.r_out(n), 5) << "node " << n.value;
  }
  for (NodeId in : g.inputs()) EXPECT_EQ(rp.r_out(in), 5);
}

TEST(RequiredPrecision, Figure1Is9Or7) {
  const Graph g = designs::figure1_g2();
  const auto rp = compute_required_precision(g);
  const auto f = designs::figure_nodes(g);
  EXPECT_EQ(rp.r_out(f.n1), 9);  // consumer extends to 9
  EXPECT_EQ(rp.r_in(f.n1), 7);   // capped by w(N1) = 7
  EXPECT_EQ(rp.r_out(f.n4), 9);
}

// Soundness property: forcing the bits above r(p_o) of any node's result to
// arbitrary values (by truncating to r and re-extending with either sign)
// never changes any primary output.
class RpSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpSoundness, HighBitsAreSuperfluous) {
  Rng rng(GetParam());
  const Graph g = dfg::random_graph(rng);
  const auto rp = compute_required_precision(g);
  dfg::Evaluator ev(g);

  for (const auto& n : g.nodes()) {
    if (!dfg::is_operator(n.kind) && n.kind != dfg::OpKind::Input) continue;
    const int r = rp.r_out(n.id);
    if (r >= n.width || r == 0) continue;
    for (Sign garbage : {Sign::Unsigned, Sign::Signed}) {
      // Mutated copy: truncate n's result to r bits, then re-extend with
      // `garbage` sign; consumers read through the re-extension.
      Graph m = g;
      // Each call moves a copy of the node's whole fanout.
      const NodeId trunc = m.insert_extension_retarget(
          n.id, r, garbage, std::vector<dfg::EdgeId>(m.node(n.id).out));
      m.insert_extension_retarget(trunc, n.width, garbage,
                                  std::vector<dfg::EdgeId>(m.node(trunc).out));
      ASSERT_TRUE(m.validate().empty());
      Rng stim_rng(GetParam() ^ 0x9e3779b9);
      std::string why;
      EXPECT_TRUE(equivalent_by_simulation(g, m, 24, stim_rng, &why))
          << "node " << n.id.value << " r=" << r << " w=" << n.width << ": "
          << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpSoundness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dpmerge::analysis
