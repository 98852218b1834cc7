// Formal (BDD-based) equivalence checks: upgrades the randomized-simulation
// results to exact proofs on the paper's worked examples and on small
// random designs — every transformation and every synthesis flow.

#include <gtest/gtest.h>

#include "dpmerge/designs/figures.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/formal/equiv.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/transform/rebalance.h"
#include "dpmerge/transform/width_prune.h"
#include "sim_oracle.h"

namespace dpmerge::formal {
namespace {

using dfg::Builder;
using dfg::Graph;
using dfg::Operand;

TEST(SymbolicWords, ArithmeticMatchesBitVector) {
  Bdd m;
  Rng rng(5);
  for (int t = 0; t < 60; ++t) {
    const int w = static_cast<int>(rng.uniform(1, 10));
    const BitVector a = rng.bits(w);
    const BitVector b = rng.bits(w);
    const Word wa = sym_const(m, a);
    const Word wb = sym_const(m, b);
    auto as_bits = [&](const Word& x) {
      BitVector v(x.width());
      for (int i = 0; i < x.width(); ++i) {
        v.set_bit(i, x.bits[static_cast<std::size_t>(i)] == Bdd::kTrue);
      }
      return v;
    };
    EXPECT_EQ(as_bits(sym_add(m, wa, wb)), a.add(b));
    EXPECT_EQ(as_bits(sym_sub(m, wa, wb)), a.sub(b));
    EXPECT_EQ(as_bits(sym_mul(m, wa, wb)), a.mul(b));
    EXPECT_EQ(as_bits(sym_neg(m, wa)), a.negate());
    EXPECT_EQ(as_bits(sym_shl(m, wa, 2)), a.shl(2));
    EXPECT_EQ(sym_lt(m, wa, wb, false) == Bdd::kTrue, a.unsigned_lt(b));
    EXPECT_EQ(sym_lt(m, wa, wb, true) == Bdd::kTrue, a.signed_lt(b));
    EXPECT_EQ(sym_eq(m, wa, wb) == Bdd::kTrue, a == b);
    for (Sign s : {Sign::Unsigned, Sign::Signed}) {
      EXPECT_EQ(as_bits(sym_resize(m, wa, w + 3, s)), a.resize(w + 3, s));
      EXPECT_EQ(as_bits(sym_resize(m, wa, std::max(1, w - 2), s)),
                a.resize(std::max(1, w - 2), s));
    }
  }
}

TEST(SymbolicWords, CellAlgebraMatchesTruthTables) {
  for (const netlist::CellInfo& cell : netlist::kCells) {
    Bdd m;
    Bdd::Ref vars[netlist::kMaxCellInputs] = {};
    for (int k = 0; k < cell.inputs; ++k) vars[k] = m.var(k);
    const Bdd::Ref f = netlist::apply_cell(cell.type, vars, BddOps{m});
    for (int a = 0; a < (1 << cell.inputs); ++a) {
      std::vector<bool> assignment;
      for (int k = 0; k < cell.inputs; ++k) assignment.push_back((a >> k) & 1);
      EXPECT_EQ(m.eval(f, assignment),
                netlist::eval_cell(cell.type, assignment))
          << cell.name << " assignment " << a;
    }
  }
}

TEST(FormalEquiv, FigureTransformsProved) {
  // The paper's own examples, proved exactly (not just sampled):
  // G4 -> G4' (Theorem 4.2) and G5 -> G5' (Lemmas 5.6/5.7).
  {
    Graph g4 = designs::figure2_g4();
    Graph g4p = g4;
    transform::prune_required_precision(g4p);
    const auto r = check_graph_vs_graph(g4, g4p);
    EXPECT_TRUE(r.equivalent()) << r.detail;
  }
  {
    Graph g5 = designs::figure3_g5();
    Graph g5p = g5;
    transform::prune_info_content(g5p);
    const auto r = check_graph_vs_graph(g5, g5p);
    EXPECT_TRUE(r.equivalent()) << r.detail;
  }
}

TEST(FormalEquiv, FigureSynthesisProved) {
  // Every flow's netlist for G2/G4/G5 is proved equal to the DFG.
  for (const Graph& g : {designs::figure1_g2(), designs::figure2_g4(),
                         designs::figure3_g5()}) {
    for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                      synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(g, flow);
      const auto r = check_netlist_vs_graph(res.net, g);
      EXPECT_TRUE(r.equivalent())
          << std::string(synth::to_string(flow)) << ": " << r.detail;
    }
  }
}

TEST(FormalEquiv, DetectsInjectedNetlistBug) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 6);
  const auto c = b.input("c", 6);
  const auto s = b.add(7, Operand{a, 7, Sign::Signed},
                       Operand{c, 7, Sign::Signed});
  b.output("r", 7, Operand{s});
  auto res = synth::run_flow(g, synth::Flow::NewMerge);
  ASSERT_TRUE(check_netlist_vs_graph(res.net, g).equivalent());

  // Fault injection: flip the gate driving the MSB of the output bus (the
  // *first* XOR2 of a Kogge-Stone adder can be logically redundant — p0
  // with a zero carry-in — and an equivalence checker rightly shrugs at
  // that; the output driver is always observable).
  const netlist::NetId msb = res.net.outputs().front().signal.msb();
  const netlist::GateId drv = res.net.driver_id(msb);
  ASSERT_TRUE(drv.valid());
  netlist::Gate& gate =
      res.net.mutable_gates()[static_cast<std::size_t>(drv.value)];
  ASSERT_EQ(gate.type, netlist::CellType::XOR2);
  gate.type = netlist::CellType::XNOR2;
  const auto r = check_netlist_vs_graph(res.net, g);
  EXPECT_EQ(r.status, EquivResult::Status::Different);
  EXPECT_NE(r.detail.find("witness"), std::string::npos);
}

TEST(FormalEquiv, DetectsGraphDifference) {
  Graph g1;
  {
    Builder b(g1);
    const auto a = b.input("a", 4);
    const auto s = b.add(5, Operand{a, 5, Sign::Signed},
                         Operand{a, 5, Sign::Signed});
    b.output("r", 5, Operand{s});
  }
  Graph g2;
  {
    Builder b(g2);
    const auto a = b.input("a", 4);
    const auto s = b.shl(5, Operand{a, 5, Sign::Signed}, 1);
    b.output("r", 5, Operand{s});
  }
  // 2a == a<<1: these ARE equivalent.
  EXPECT_TRUE(check_graph_vs_graph(g1, g2).equivalent());

  Graph g3;
  {
    Builder b(g3);
    const auto a = b.input("a", 4);
    const auto s = b.shl(5, Operand{a, 5, Sign::Signed}, 2);
    b.output("r", 5, Operand{s});
  }
  EXPECT_EQ(check_graph_vs_graph(g1, g3).status,
            EquivResult::Status::Different);
}

TEST(FormalEquiv, ResourceLimitReported) {
  // A 12x12 multiplier with a tiny node budget cannot be decided.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 12);
  const auto c = b.input("c", 12);
  const auto mres = b.mul(24, Operand{a, 24, Sign::Signed},
                          Operand{c, 24, Sign::Signed});
  b.output("r", 24, Operand{mres});
  const auto res = synth::run_flow(g, synth::Flow::NewMerge);
  const auto r = check_netlist_vs_graph(res.net, g, /*max_nodes=*/2000);
  EXPECT_EQ(r.status, EquivResult::Status::ResourceLimit);
  EXPECT_FALSE(r.proved());
}

// Formal proofs over random small graphs: all transformations and all
// synthesis flows.
class FormalRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormalRandom, TransformsAndFlows) {
  Rng rng(GetParam());
  dfg::RandomGraphOptions opt;
  opt.num_inputs = 3;
  opt.num_operators = 8;
  opt.max_width = 8;
  opt.mul_fraction = 0.08;  // keep multiplier BDDs small
  for (int t = 0; t < 2; ++t) {
    const Graph g = dfg::random_graph(rng, opt);
    {
      Graph mgraph = g;
      transform::normalize_widths(mgraph);
      const auto r = check_graph_vs_graph(g, mgraph);
      ASSERT_TRUE(r.proved());
      EXPECT_TRUE(r.equivalent()) << r.detail;
    }
    {
      const Graph reb = transform::rebalance_clusters(g);
      const auto r = check_graph_vs_graph(g, reb);
      ASSERT_TRUE(r.proved());
      EXPECT_TRUE(r.equivalent()) << r.detail;
    }
    for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                      synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(g, flow);
      const auto r = check_netlist_vs_graph(res.net, g);
      ASSERT_TRUE(r.proved());
      EXPECT_TRUE(r.equivalent())
          << std::string(synth::to_string(flow)) << ": " << r.detail;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormalRandom,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace dpmerge::formal
