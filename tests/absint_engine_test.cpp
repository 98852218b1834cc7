// Property and unit tests for the bidirectional fixpoint engine
// (check::compute_absint): the forward product domain (known bits x
// intervals x congruences) must contain every concrete value, and the
// backward demanded-bits results must stay within required precision. The
// lint built on top (check::lint_absint) must be clean on the paper designs
// and a 500-seed fuzz corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/check/absint_engine.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/io.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/obs/json.h"

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

// Demanded bits generalise required precision: the demanded width can only
// be tighter, never wider (rp.unsound's inequality, DESIGN.md §13).
TEST(AbsintEngineProperty, DemandedWidthNeverExceedsRequiredPrecision) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 1099511628211ull + 11);
    const Graph g = dfg::random_graph(rng, fuzz_options(seed));
    const auto r = check::compute_absint(g);
    const auto rp = analysis::compute_required_precision(g);
    for (const auto& n : g.nodes()) {
      EXPECT_LE(r.demanded_width(n.id), rp.r_out(n.id))
          << "seed " << seed << " node " << n.id.value << " ("
          << dfg::to_string(n.kind) << ")";
    }
  }
}

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
  const NodeId x = g.add_node(OpKind::Input, 8, "x");
  const NodeId c = g.add_const(BitVector::from_uint(3, 4));
  const NodeId m = g.add_node(OpKind::Mul, 10);
  g.add_edge(x, m, 0, 10, Sign::Unsigned);
  g.add_edge(c, m, 1, 10, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 10, "out");
  g.add_edge(m, o, 0, 10, Sign::Unsigned);
  const auto r = check::compute_absint(g);
  EXPECT_GE(r.out(m).cong.trailing_zeros(), 2);
  // ... and the co-factor's demand drops those two bits: only the low 8 of
  // the 10-bit product feed the truncating view (full width demanded at the
  // output), but x itself never needs its top bits to produce them.
  EXPECT_EQ(r.demanded_width(m), 10);
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

TEST(AbsintEngineUnit, AdditionChainConvergesAndReportsRounds) {
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
  EXPECT_GE(r.rounds, 1);
  EXPECT_LE(r.rounds, 4);
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
  EXPECT_NE(json.find("\"demanded_width\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\""), std::string::npos);
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
