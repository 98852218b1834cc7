// Property and unit tests for the abstract interpreter
// (check::compute_absint): the forward product domain (known bits x
// intervals x congruences) must contain every concrete value, and the
// backward demanded widths must stay within each value's width and required
// precision and leave every bit above them unobservable. The lint built on
// top (check::lint_absint) must be clean on the paper designs and a
// 500-seed fuzz corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/check/absint_engine.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/io.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/obs/json.h"
#include "dfg_oracle.h"

namespace dpmerge {
namespace {

using dfg::Graph;
using dfg::NodeId;
using dfg::OpKind;

constexpr int kSeeds = 500;

dfg::RandomGraphOptions fuzz_options(std::uint64_t seed) {
  dfg::RandomGraphOptions opt;
  opt.num_operators = 4 + static_cast<int>(seed % 17);
  opt.max_width = 4 + static_cast<int>(seed % 29);
  opt.cmp_fraction = (seed % 3) ? 0.06 : 0.2;
  opt.mul_fraction = (seed % 2) ? 0.2 : 0.35;
  return opt;
}

TEST(AbsintEngineProperty, ContainsEveryConcreteValue) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 6364136223846793005ull + 97);
    const Graph g = dfg::random_graph(rng, fuzz_options(seed));
    const auto r = check::compute_absint(g);
    const dfg::Evaluator ev(g);
    for (int trial = 0; trial < 6; ++trial) {
      const auto results = ev.run(ev.random_inputs(rng));
      for (const auto& n : g.nodes()) {
        EXPECT_TRUE(check::contains(
            r.out(n.id), results[static_cast<std::size_t>(n.id.value)]))
            << "seed " << seed << " trial " << trial << " node " << n.id.value;
      }
      for (const auto& e : g.edges()) {
        const BitVector& src = results[static_cast<std::size_t>(e.src.value)];
        const auto d = dfg::deliver(src, src.width(), e, g.node(e.dst),
                                    dfg::BitVectorOps{});
        EXPECT_TRUE(check::contains(r.edge(e.id), d.carried))
            << "seed " << seed << " edge " << e.id.value;
        EXPECT_TRUE(check::contains(r.operand(e.id), d.delivered))
            << "seed " << seed << " operand edge " << e.id.value;
      }
    }
  }
}

// Demanded widths tighten required precision: the demanded width can only
// be narrower, never wider (rp.unsound's inequality, DESIGN.md §13), and no
// demand exceeds the width of the value it is on (a node, an edge carrier,
// a delivered operand). Each seed is checked raw and with sign-flipping
// Extension nodes before its outputs, whose t(N) differs from the t(e) of
// the edge into them.
TEST(AbsintEngineProperty, DemandedWidthNeverExceedsRequiredPrecision) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 1099511628211ull + 11);
    const Graph raw = dfg::random_graph(rng, fuzz_options(seed));
    for (const Graph& g :
         {raw, dfg::oracle::with_sign_flipping_extensions(raw)}) {
      const auto r = check::compute_absint(g);
      const auto rp = analysis::compute_required_precision(g);
      for (const auto& n : g.nodes()) {
        EXPECT_LE(r.demanded_width(n.id), rp.r_out(n.id))
            << "seed " << seed << " node " << n.id.value << " ("
            << dfg::to_string(n.kind) << ")";
        EXPECT_GE(r.demanded_width(n.id), 0) << "seed " << seed;
        EXPECT_LE(r.demanded_width(n.id), n.width)
            << "seed " << seed << " node " << n.id.value;
      }
      for (const auto& e : g.edges()) {
        const auto i = static_cast<std::size_t>(e.id.value);
        EXPECT_GE(r.demanded_edge[i], 0) << "seed " << seed;
        EXPECT_LE(r.demanded_edge[i], e.width)
            << "seed " << seed << " edge " << e.id.value;
        EXPECT_GE(r.demanded_operand[i], 0) << "seed " << seed;
        EXPECT_LE(r.demanded_operand[i], g.node(e.dst).width)
            << "seed " << seed << " operand edge " << e.id.value;
      }
    }
  }
}

/// The design outputs of `g` on `inputs`, computed with `dfg::deliver` and
/// `dfg::apply_op` over `BitVectorOps`, with `flip` XORed into the result of
/// node `at` before any consumer reads it.
std::vector<BitVector> outputs_with_flip(const Graph& g,
                                         const std::vector<BitVector>& inputs,
                                         NodeId at, const BitVector& flip) {
  std::vector<BitVector> val(static_cast<std::size_t>(g.node_count()));
  for (std::size_t i = 0; i < g.inputs().size(); ++i) {
    val[static_cast<std::size_t>(g.inputs()[i].value)] = inputs[i];
  }
  std::array<BitVector, 2> operands;
  for (const NodeId id : g.freeze().topo) {
    const dfg::Node& n = g.node(id);
    BitVector& v = val[static_cast<std::size_t>(id.value)];
    if (n.kind != OpKind::Input) {
      for (std::size_t p = 0; p < n.in.size(); ++p) {
        const dfg::Edge& e = g.edge(n.in[p]);
        const BitVector& src = val[static_cast<std::size_t>(e.src.value)];
        operands[p] =
            dfg::deliver(src, src.width(), e, n, dfg::BitVectorOps{}).delivered;
      }
      v = dfg::apply_op(
          n, std::span<const BitVector>(operands.data(), n.in.size()),
          dfg::BitVectorOps{});
    }
    if (id == at) {
      for (int i = 0; i < flip.width(); ++i) {
        if (flip.bit(i)) v.set_bit(i, !v.bit(i));
      }
    }
  }
  std::vector<BitVector> outs;
  for (const NodeId o : g.outputs()) {
    outs.push_back(val[static_cast<std::size_t>(o.value)]);
  }
  return outs;
}

// A demanded width k claims that bits k and above of a node's result cannot
// reach any design output. Checked against the concrete semantics, not the
// demand transfers: XORing random garbage into exactly those bits of one
// node's result leaves every Output as it was. Each random graph is also
// checked with sign-flipping Extension nodes before its outputs.
class DemandSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DemandSoundness, UndemandedBitsAreUnobservable) {
  constexpr std::uint64_t kGraphsPerSeed = 25;
  for (std::uint64_t k = 0; k < kGraphsPerSeed; ++k) {
    const std::uint64_t seed = GetParam() * kGraphsPerSeed + k;
    Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
    const Graph raw = dfg::random_graph(rng, fuzz_options(seed));
    for (const Graph& g :
         {raw, dfg::oracle::with_sign_flipping_extensions(raw)}) {
      const auto r = check::compute_absint(g);
      const dfg::Evaluator ev(g);
      for (int trial = 0; trial < 4; ++trial) {
        const auto inputs = ev.random_inputs(rng);
        const auto expect = ev.run_outputs(inputs);
        for (const auto& n : g.nodes()) {
          const int demanded = r.demanded_width(n.id);
          BitVector flip = rng.bits(n.width);
          for (int i = 0; i < demanded; ++i) flip.set_bit(i, false);
          if (flip.is_zero()) continue;
          const auto got = outputs_with_flip(g, inputs, n.id, flip);
          for (std::size_t o = 0; o < got.size(); ++o) {
            EXPECT_EQ(got[o], expect[o])
                << "seed " << seed << " node " << n.id.value << " ("
                << dfg::to_string(n.kind) << ") flip " << flip.to_string()
                << " demanded " << demanded << " output " << o
                << ": " << got[o].to_string() << " != "
                << expect[o].to_string();
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DemandSoundness,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(AbsintEngineLint, CleanOnPaperDesigns) {
  for (const auto& tc : designs::all_testcases()) {
    const auto ia = analysis::compute_info_content(tc.graph);
    const auto rp = analysis::compute_required_precision(tc.graph);
    const auto rep = check::lint_absint(tc.graph, &ia, &rp);
    EXPECT_TRUE(rep.clean()) << tc.name << "\n" << rep.to_text();
  }
}

// Each seed is linted raw and after the paper's width normalisation, whose
// narrowed graph is what the clusterer and synthesizer consume.
TEST(AbsintEngineLint, ZeroSoundnessViolationsOnFuzzCorpus) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 0x9e3779b9u + 7);
    const Graph g = dfg::random_graph(rng, fuzz_options(seed));
    const auto ia = analysis::compute_info_content(g);
    const auto rp = analysis::compute_required_precision(g);
    const auto rep = check::lint_absint(g, &ia, &rp);
    EXPECT_TRUE(rep.clean()) << "seed " << seed << "\n" << rep.to_text();
  }
}

TEST(AbsintEngineLint, StaleResultsAreFlagged) {
  Rng rng(424242);
  Graph g = dfg::random_graph(rng, fuzz_options(5));
  const auto ia = analysis::compute_info_content(g);
  const auto rp = analysis::compute_required_precision(g);
  // Mutate the graph after the analyses ran: both must be reported stale.
  const NodeId extra = g.add_node(OpKind::Output, 4, "stale_out");
  g.add_edge(g.inputs().front(), extra, 0, 4, Sign::Unsigned);
  const auto rep = check::lint_absint(g, &ia, &rp);
  EXPECT_TRUE(rep.has_rule("ic.stale")) << rep.to_text();
  EXPECT_TRUE(rep.has_rule("rp.stale")) << rep.to_text();
}

TEST(AbsintEngineUnit, MulByFourIsCongruentZeroModFour) {
  Graph g;
  const NodeId x = g.add_node(OpKind::Input, 12, "x");
  const NodeId c = g.add_const(BitVector::from_uint(3, 4));
  const NodeId m = g.add_node(OpKind::Mul, 10);
  g.add_edge(x, m, 0, 10, Sign::Unsigned);
  g.add_edge(c, m, 1, 10, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 10, "out");
  g.add_edge(m, o, 0, 10, Sign::Unsigned);
  const auto r = check::compute_absint(g);
  EXPECT_GE(r.out(m).cong.trailing_zeros(), 2);
  // ... and the co-factor's demand drops those two bits: the whole 10-bit
  // product is demanded at the output, but x·4 reads only the low 8 bits of
  // x to produce it, where required precision keeps all 10.
  EXPECT_EQ(r.demanded_width(m), 10);
  EXPECT_EQ(r.demanded_width(x), 8);
  EXPECT_EQ(analysis::compute_required_precision(g).r_out(x), 10);
}

TEST(AbsintEngineUnit, DemandThroughTruncationCutsUpstream) {
  // (a * b) truncated to 6 bits: the multiply only needs its low 6 bits.
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 8, "a");
  const NodeId b = g.add_node(OpKind::Input, 8, "b");
  const NodeId m = g.add_node(OpKind::Mul, 16);
  g.add_edge(a, m, 0, 16, Sign::Unsigned);
  g.add_edge(b, m, 1, 16, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 6, "out");
  g.add_edge(m, o, 0, 6, Sign::Unsigned);
  const auto r = check::compute_absint(g);
  EXPECT_EQ(r.demanded_width(m), 6);
  EXPECT_EQ(r.demanded_width(a), 6);
  EXPECT_EQ(r.demanded_width(b), 6);
}

TEST(AbsintEngineUnit, AdditionChainDemandsItsWholeWidth) {
  Graph g;
  const NodeId x = g.add_node(OpKind::Input, 8, "x");
  NodeId cur = x;
  for (int i = 0; i < 10; ++i) {
    const NodeId s = g.add_node(OpKind::Add, 8);
    g.add_edge(cur, s, 0, 8, Sign::Unsigned);
    g.add_edge(x, s, 1, 8, Sign::Unsigned);
    cur = s;
  }
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(cur, o, 0, 8, Sign::Unsigned);
  const auto r = check::compute_absint(g);
  // Every adder's result reaches the 8-bit output through carries, so each
  // node, x included, is demanded in full.
  for (const auto& n : g.nodes()) {
    EXPECT_EQ(r.demanded_width(n.id), 8) << "node " << n.id.value;
  }
  // Forward, 11·x mod 2^8 can be any byte: the output fact is the full
  // interval, with nothing known about its bits.
  EXPECT_TRUE(r.out(o).range.valid);
  EXPECT_EQ(r.out(o).range.lo, 0u);
  EXPECT_EQ(r.out(o).range.hi, 255u);
  EXPECT_TRUE(r.out(o).bits.known.is_zero());
}

TEST(AbsintEngineUnit, FactReportsAreWellFormed) {
  Rng rng(7);
  const Graph g = dfg::random_graph(rng, fuzz_options(7));
  const auto r = check::compute_absint(g);
  const std::string text = check::absint_facts_text(g, r);
  EXPECT_NE(text.find("absint fixpoint"), std::string::npos);
  const std::string json = check::absint_facts_json(g, r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line per lint file
  EXPECT_EQ(json.rfind("{\"nodes\": [", 0), 0u);
  EXPECT_NE(json.find("\"demanded_width\""), std::string::npos);
  EXPECT_EQ(json.find("\"rounds\""), std::string::npos);
}

TEST(AbsintEngineUnit, FactJsonIsValidUtf8WhateverTheNames) {
  // The .dfg reader takes any non-whitespace token as a name: an invalid
  // UTF-8 byte and a control character reach the fact JSON escaped, a
  // valid multi-byte character as it is.
  const Graph g = dfg::parse_graph(
      "dfg v1\n"
      "input a\xff\x01\xc3\xa9 8\n"
      "output r 8\n"
      "edge a\xff\x01\xc3\xa9 r 0 8 signed\n");
  const std::string json =
      check::absint_facts_json(g, check::compute_absint(g));
  std::string why;
  EXPECT_TRUE(obs::json_valid(json, &why)) << why;
  EXPECT_NE(json.find("\"name\": \"a\\ufffd\\u0001\xc3\xa9\""),
            std::string::npos)
      << json;
  // No raw byte >= 0x80 but the two of the valid character.
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) >= 0x80;
                          }),
            2)
      << json;
}

}  // namespace
}  // namespace dpmerge
