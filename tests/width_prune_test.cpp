#include "dpmerge/transform/width_prune.h"

#include <gtest/gtest.h>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/designs/figures.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dfg_oracle.h"

namespace dpmerge::transform {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;

void expect_equivalent(const Graph& before, const Graph& after,
                       std::uint64_t seed, const char* what) {
  Rng rng(seed);
  std::string why;
  EXPECT_TRUE(equivalent_by_simulation(before, after, 32, rng, &why))
      << what << ": " << why;
  EXPECT_TRUE(after.validate().empty());
}

TEST(RpPrune, Figure2ShrinksEverythingToFive) {
  // Theorem 4.2 on G4: every operator and edge shrinks to the 5-bit output
  // precision (the G4 -> G4' transformation of Figure 2).
  Graph g = designs::figure2_g4();
  const Graph before = g;
  const auto stats = prune_required_precision(g);
  EXPECT_GT(stats.nodes_narrowed, 0);
  const auto f = designs::figure_nodes(g);
  for (NodeId n : {f.n1, f.n2, f.n3, f.n4}) EXPECT_EQ(g.node(n).width, 5);
  for (const auto& e : g.edges()) EXPECT_LE(e.width, 5);
  expect_equivalent(before, g, 1001, "figure2 rp prune");
}

TEST(RpPrune, Figure1NodesAlreadyTight) {
  // With the full 9-bit output, no operator of G2 can shrink; only the two
  // 8-bit edges feeding the 7-bit N1 narrow (the node truncated them
  // anyway).
  Graph g = designs::figure1_g2();
  const Graph before = g;
  const auto stats = prune_required_precision(g);
  EXPECT_EQ(stats.nodes_narrowed, 0);
  EXPECT_EQ(stats.edges_narrowed, 2);
  expect_equivalent(before, g, 1000, "figure1 rp prune");
}

TEST(RpPrune, PreservesInterfaceWidths) {
  Graph g = designs::figure2_g4();
  prune_required_precision(g);
  for (NodeId in : g.inputs()) EXPECT_EQ(g.node(in).width, 8);
  for (NodeId out : g.outputs()) EXPECT_EQ(g.node(out).width, 5);
}

TEST(IcPrune, Figure3ShrinksToContent) {
  // Lemmas 5.6/5.7 on G5: N1/N2 shrink to their 4-bit content, N3 to 5 bits
  // (the G5 -> G5' transformation of Figure 3), with no Extension node
  // needed (the shrink is absorbed into the signed edges).
  Graph g = designs::figure3_g5();
  const Graph before = g;
  const auto stats = prune_info_content(g);
  const auto f = designs::figure_nodes(g);
  EXPECT_EQ(g.node(f.n1).width, 4);
  EXPECT_EQ(g.node(f.n2).width, 4);
  EXPECT_EQ(g.node(f.n3).width, 5);
  EXPECT_EQ(g.node(f.n4).width, 10);
  EXPECT_EQ(stats.extensions_inserted, 0);
  expect_equivalent(before, g, 1002, "figure3 ic prune");
}

TEST(IcPrune, InsertsExtensionForZeroPaddedSignedContent) {
  // A signed-content node whose consumer zero-pads it: the shrink cannot be
  // absorbed into the edge and must materialise an Extension node.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  // 12-bit subtract holding only 5 bits of signed content.
  const auto s = b.sub(12, Operand{a, 12, Sign::Signed},
                       Operand{c, 12, Sign::Signed});
  // Consumer zero-extends the 12-bit value to 16.
  const auto t = b.add(16, Operand{s, 16, Sign::Unsigned},
                       Operand{a, 16, Sign::Unsigned});
  b.output("r", 16, Operand{t});
  const Graph before = g;
  const auto stats = prune_info_content(g);
  EXPECT_EQ(g.node(s).width, 5);
  EXPECT_EQ(stats.extensions_inserted, 1);
  expect_equivalent(before, g, 1003, "zero-padded signed content");
}

TEST(IcPrune, UnsignedContentAbsorbedIntoSignedEdge) {
  // The "interesting case": unsigned content crossing a signed edge is
  // rewritten to an unsigned edge, no Extension node.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4, Sign::Unsigned);
  const auto c = b.input("c", 4, Sign::Unsigned);
  const auto s = b.add(12, Operand{a, 12, Sign::Unsigned},
                       Operand{c, 12, Sign::Unsigned});
  const auto t = b.add(16, Operand{s, 16, Sign::Signed},
                       Operand{a, 16, Sign::Unsigned});
  b.output("r", 16, Operand{t});
  const Graph before = g;
  const auto stats = prune_info_content(g);
  EXPECT_EQ(g.node(s).width, 5);
  EXPECT_EQ(stats.extensions_inserted, 0);
  expect_equivalent(before, g, 1004, "unsigned across signed edge");
}

TEST(IcPrune, NarrowsOverwideEdges) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto s = b.add(6, Operand{a, 6, Sign::Signed},
                       Operand{a, 6, Sign::Signed});
  // 20-bit edge carrying a 6-bit signal into a 20-bit adder.
  const auto t = b.add(20, Operand{s, 20, Sign::Signed},
                       Operand{a, 20, Sign::Signed});
  b.output("r", 20, Operand{t});
  const Graph before = g;
  prune_info_content(g);
  EXPECT_LE(g.edge(g.node(t).in[0]).width, 6);
  expect_equivalent(before, g, 1005, "overwide edge");
}

TEST(Normalize, D4CollapsesRedundantWidths) {
  Graph g = designs::make_d4();
  const Graph before = g;
  const auto stats = normalize_widths(g);
  EXPECT_GT(stats.bits_removed, 100);  // 32-bit ops collapse dramatically
  int max_w = 0;
  for (const auto& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind)) max_w = std::max(max_w, n.width);
  }
  // The skewed single-pass bound still over-estimates the long chain
  // (+1 per adder); the Huffman feedback loop (prepare_new_merge, tested in
  // synth_flow_test) tightens this further to ~10 bits.
  EXPECT_LE(max_w, 22);
  expect_equivalent(before, g, 1006, "d4 normalize");
}

TEST(Normalize, RefinementsTightenFurther) {
  Graph g = designs::make_d4();
  const Graph before = g;
  normalize_widths(g);
  // Hand a refined bound for the widest node and check it shrinks to it.
  int widest = -1, max_w = 0;
  for (const auto& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind) && n.width > max_w) {
      max_w = n.width;
      widest = n.id.value;
    }
  }
  ASSERT_GE(widest, 0);
  analysis::InfoRefinements refs(static_cast<std::size_t>(g.node_count()));
  refs[static_cast<std::size_t>(widest)] =
      analysis::InfoContent{10, Sign::Signed};
  normalize_widths(g, &refs);
  EXPECT_LE(g.node(dfg::NodeId{widest}).width, 10);
  expect_equivalent(before, g, 1007, "d4 refined normalize");
}

TEST(Normalize, D1IsAlreadyTight) {
  // D1 has no redundant widths: normalisation must not change any operator
  // width (the paper's premise for D1/D2).
  Graph g = designs::make_d1();
  const Graph before = g;
  normalize_widths(g);
  for (int i = 0; i < before.node_count(); ++i) {
    EXPECT_EQ(g.nodes()[static_cast<std::size_t>(i)].width,
              before.nodes()[static_cast<std::size_t>(i)].width);
  }
}

TEST(Normalize, Idempotent) {
  Graph g = designs::make_d5();
  normalize_widths(g);
  Graph g2 = g;
  const auto stats = normalize_widths(g2);
  EXPECT_FALSE(stats.changed());
}

// Equivalence property: every pruning pass preserves functionality on random
// graphs (Theorem 4.2 and Lemmas 5.6/5.7 in composition).
class PrunePreservesFunction : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PrunePreservesFunction, RandomGraphs) {
  Rng rng(GetParam());
  for (int t = 0; t < 6; ++t) {
    const Graph g = dfg::random_graph(rng);
    {
      Graph m = g;
      prune_required_precision(m);
      expect_equivalent(g, m, GetParam() * 31 + 1, "rp");
    }
    {
      Graph m = g;
      prune_info_content(m);
      expect_equivalent(g, m, GetParam() * 31 + 2, "ic");
    }
    {
      Graph m = g;
      normalize_widths(m);
      expect_equivalent(g, m, GetParam() * 31 + 3, "normalize");
      // Widths never grow.
      for (int i = 0; i < g.node_count(); ++i) {
        EXPECT_LE(m.nodes()[static_cast<std::size_t>(i)].width,
                  g.nodes()[static_cast<std::size_t>(i)].width);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunePreservesFunction,
                         ::testing::Values(51, 52, 53, 54, 55, 56, 57, 58, 59,
                                           60));

// The pruned graph's claims must still be sound (the transforms and the
// analysis agree with each other).
TEST(Normalize, ClaimsRemainSoundAfterPruning) {
  Rng rng(314);
  for (int t = 0; t < 8; ++t) {
    Graph g = dfg::random_graph(rng);
    normalize_widths(g);
    const auto ia = analysis::compute_info_content(g);
    dfg::Evaluator ev(g);
    for (int trial = 0; trial < 20; ++trial) {
      const auto results = ev.run(ev.random_inputs(rng));
      for (const auto& n : g.nodes()) {
        const auto claim = ia.out(n.id);
        EXPECT_TRUE(results[static_cast<std::size_t>(n.id.value)]
                        .is_extension_of_low(claim.width, claim.sign));
      }
    }
  }
}

}  // namespace
}  // namespace dpmerge::transform
