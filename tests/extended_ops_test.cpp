// Tests for the operator set beyond the paper's +, -, x, unary minus — the
// constant shifter and the comparators the paper says its analyses extend
// to (Section 1's remark), implemented here as an extension.

#include <gtest/gtest.h>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/cluster/flatten.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "dpmerge/transform/width_prune.h"
#include "sim_oracle.h"
#include "dfg_oracle.h"

namespace dpmerge {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::OpKind;
using dfg::Operand;

std::int64_t run1(const Graph& g, std::vector<std::int64_t> ins) {
  dfg::Evaluator ev(g);
  std::vector<BitVector> stim;
  const auto inputs = g.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    stim.push_back(BitVector::from_int(g.node(inputs[i]).width, ins[i]));
  }
  return ev.run_outputs(stim).at(0).to_int64();
}

TEST(Shl, EvaluatorSemantics) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto s = b.shl(12, Operand{a, 12, Sign::Signed}, 3);
  b.output("r", 12, Operand{s});
  EXPECT_EQ(run1(g, {5}), 40);
  EXPECT_EQ(run1(g, {-7}), -56);
  // Overflow wraps mod 2^12.
  EXPECT_EQ(run1(g, {127}), (127 << 3) - 0);
}

TEST(Shl, BitVectorShl) {
  EXPECT_EQ(BitVector::from_uint(8, 0b1011).shl(2).to_uint64(), 0b101100u);
  EXPECT_EQ(BitVector::from_uint(4, 0b1011).shl(2).to_uint64(), 0b1100u);
  EXPECT_EQ(BitVector::from_uint(4, 3).shl(0).to_uint64(), 3u);
}

TEST(Shl, InfoContentAddsShift) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto s = b.shl(16, Operand{a, 16, Sign::Signed}, 5);
  b.output("r", 16, Operand{s});
  const auto ia = analysis::compute_info_content(g);
  EXPECT_EQ(ia.out(s), (analysis::InfoContent{9, Sign::Signed}));
}

TEST(Shl, RequiredPrecisionSubtractsShift) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 16);
  const auto s = b.shl(16, Operand{a}, 6);
  b.output("r", 10, Operand{s, 10});
  const auto rp = analysis::compute_required_precision(g);
  // Only 10 output bits observed; operand bits land 6 columns higher.
  EXPECT_EQ(rp.r_in(s), 4);
  EXPECT_EQ(rp.r_out(a), 4);
}

TEST(Shl, MergesIntoClusters) {
  // y = (a << 2) + b - (c << 4): everything one cluster, rows shifted.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 6);
  const auto bb = b.input("b", 6);
  const auto c = b.input("c", 6);
  const auto sa = b.shl(12, Operand{a, 12, Sign::Signed}, 2);
  const auto sc = b.shl(12, Operand{c, 12, Sign::Signed}, 4);
  const auto t = b.add(12, Operand{sa, 12, Sign::Signed},
                       Operand{bb, 12, Sign::Signed});
  const auto z = b.sub(12, Operand{t, 12, Sign::Signed},
                       Operand{sc, 12, Sign::Signed});
  b.output("r", 12, Operand{z});
  const auto res = cluster::cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 1);
  const auto flat =
      cluster::flatten_cluster(g, res.partition, 0);
  int shifted_terms = 0;
  for (const auto& term : flat.terms) {
    if (term.shift > 0) ++shifted_terms;
  }
  EXPECT_EQ(shifted_terms, 2);

  for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                    synth::Flow::NewMerge}) {
    const auto fr = synth::run_flow(g, flow);
    Rng rng(31 + static_cast<int>(flow));
    std::string why;
    EXPECT_TRUE(synth::verify_netlist(fr.net, g, 30, rng, &why))
        << std::string(synth::to_string(flow)) << ": " << why;
  }
  EXPECT_EQ(run1(g, {1, 1, 1}), 4 + 1 - 16);
}

TEST(Shl, StandaloneShiftIsPureWiring) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto s = b.shl(8, Operand{a}, 3);
  b.output("r", 8, Operand{s});
  const auto fr = synth::run_flow(g, synth::Flow::NewMerge);
  EXPECT_EQ(fr.net.gate_count(), 0);  // shift by constant costs no gates
}

TEST(Comparator, EvaluatorSemantics) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto lt = b.lt_signed(8, Operand{a}, Operand{c});
  b.output("r", 1, Operand{lt, 1});
  // The output is one bit wide; mask to read it as 0/1.
  EXPECT_EQ(run1(g, {-5, 3}) & 1, 1);
  EXPECT_EQ(run1(g, {3, -5}) & 1, 0);
  EXPECT_EQ(run1(g, {3, 3}) & 1, 0);
}

TEST(Comparator, UnsignedAndEq) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto lt = b.lt_unsigned(8, Operand{a}, Operand{c});
  const auto eq = b.eq(8, Operand{a}, Operand{c});
  b.output("lt", 1, Operand{lt, 1});
  b.output("eq", 1, Operand{eq, 1});
  dfg::Evaluator ev(g);
  auto outs = ev.run_outputs(
      {BitVector::from_int(8, -1), BitVector::from_uint(8, 3)});
  EXPECT_EQ(outs[0].to_uint64(), 0u);  // 0xFF > 3 unsigned
  EXPECT_EQ(outs[1].to_uint64(), 0u);
  outs = ev.run_outputs(
      {BitVector::from_uint(8, 7), BitVector::from_uint(8, 7)});
  EXPECT_EQ(outs[0].to_uint64(), 0u);
  EXPECT_EQ(outs[1].to_uint64(), 1u);
}

TEST(Comparator, InfoContentIsOneBit) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto lt = b.lt_signed(8, Operand{a}, Operand{c});
  b.output("r", 8, Operand{lt});
  const auto ia = analysis::compute_info_content(g);
  EXPECT_EQ(ia.out(lt), (analysis::InfoContent{1, Sign::Unsigned}));
}

TEST(Comparator, RequiredPrecisionDemandsFullOperands) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto lt = b.lt_signed(8, Operand{a}, Operand{c});
  b.output("r", 1, Operand{lt, 1});
  const auto rp = analysis::compute_required_precision(g);
  EXPECT_EQ(rp.r_in(lt), 8);  // all comparison bits matter
  EXPECT_EQ(rp.r_out(a), 8);
}

TEST(Comparator, WidthIsNotPruned) {
  // Theorem 4.2 must not narrow a comparator: its width is the comparison
  // width, not a result precision.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto lt = b.lt_signed(8, Operand{a}, Operand{c});
  b.output("r", 1, Operand{lt, 1});
  const Graph before = g;
  transform::normalize_widths(g);
  EXPECT_EQ(g.node(lt).width, 8);
  Rng rng(17);
  EXPECT_TRUE(equivalent_by_simulation(before, g, 32, rng));
}

TEST(Comparator, BreaksClusters) {
  // An adder feeding a comparator cannot merge with it; the comparator's
  // consumers form their own clusters.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 6);
  const auto c = b.input("c", 6);
  const auto s = b.add(7, Operand{a, 7, Sign::Signed},
                       Operand{c, 7, Sign::Signed});
  const auto lt = b.lt_signed(7, Operand{s}, Operand{a, 7, Sign::Signed});
  const auto z = b.add(8, Operand{lt, 8, Sign::Unsigned},
                       Operand{c, 8, Sign::Signed});
  b.output("r", 8, Operand{z});
  const auto res = cluster::cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 2);  // {s} and {z}
  for (const auto& cl : res.partition.clusters) {
    EXPECT_EQ(cl.size(), 1);
  }
}

class ComparatorSynth
    : public ::testing::TestWithParam<std::tuple<OpKind, int, synth::AdderArch>> {};

TEST_P(ComparatorSynth, ExhaustiveAgainstEvaluator) {
  const auto [kind, w, arch] = GetParam();
  Graph g;
  Builder b(g);
  const auto a = b.input("a", w);
  const auto c = b.input("c", w);
  const auto cmp = g.add_node(kind, w);
  g.add_edge(a, cmp, 0);
  g.add_edge(c, cmp, 1);
  b.output("r", 1, Operand{cmp, 1});
  synth::SynthOptions opt;
  opt.adder = arch;
  const auto fr = synth::run_flow(g, synth::Flow::NewMerge, opt);
  dfg::Evaluator ev(g);
  netlist::Simulator sim(fr.net);
  for (std::uint64_t x = 0; x < (1u << w); ++x) {
    for (std::uint64_t y = 0; y < (1u << w); ++y) {
      const auto expect = ev.run_outputs(
          {BitVector::from_uint(w, x), BitVector::from_uint(w, y)})[0];
      const auto got = sim.run({{"a", BitVector::from_uint(w, x)},
                                {"c", BitVector::from_uint(w, y)}});
      ASSERT_EQ(got.at("r"), expect)
          << dfg::to_string(kind) << " " << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsWidths, ComparatorSynth,
    ::testing::Combine(::testing::Values(OpKind::LtS, OpKind::LtU, OpKind::Eq),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(synth::AdderArch::Ripple,
                                         synth::AdderArch::KoggeStone)));

// Random sweep with shifters/comparators cranked up, all flows.
class ExtendedOpsRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtendedOpsRandom, AllFlowsEquivalent) {
  Rng rng(GetParam());
  for (int t = 0; t < 4; ++t) {
    dfg::RandomGraphOptions ropt;
    ropt.num_operators = 14;
    ropt.shl_fraction = 0.25;
    ropt.cmp_fraction = 0.2;
    ropt.mul_fraction = 0.1;
    const Graph g = dfg::random_graph(rng, ropt);
    for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                      synth::Flow::NewMerge}) {
      const auto fr = synth::run_flow(g, flow);
      Rng vr(GetParam() * 131 + t);
      std::string why;
      ASSERT_TRUE(synth::verify_netlist(fr.net, g, 20, vr, &why))
          << std::string(synth::to_string(flow)) << ": " << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendedOpsRandom,
                         ::testing::Values(601, 602, 603, 604, 605, 606, 607,
                                           608));

}  // namespace
}  // namespace dpmerge
