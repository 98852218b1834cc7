#include "dpmerge/cluster/clusterer.h"

#include <gtest/gtest.h>

#include <set>

#include "dpmerge/cluster/flatten.h"
#include "dpmerge/designs/figures.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/transform/width_prune.h"

namespace dpmerge::cluster {
namespace {

using dfg::Builder;
using dfg::Graph;
using dfg::NodeId;
using dfg::Operand;

int cluster_of(const Partition& p, NodeId n) { return p.index_of(n); }

TEST(Clustering, Figure1TwoClusters) {
  // G2 partitions into G_I = {N1} and G_II = {N2, N3, N4} (Figure 1b).
  Graph g = designs::figure1_g2();
  const auto res = cluster_maximal(g);
  const auto f = designs::figure_nodes(g);
  EXPECT_EQ(res.partition.num_clusters(), 2);
  EXPECT_TRUE(validate_partition(g, res.partition).empty());
  EXPECT_NE(cluster_of(res.partition, f.n1), cluster_of(res.partition, f.n3));
  EXPECT_EQ(cluster_of(res.partition, f.n2), cluster_of(res.partition, f.n3));
  EXPECT_EQ(cluster_of(res.partition, f.n3), cluster_of(res.partition, f.n4));
}

TEST(Clustering, Figure2FullyMergeableAfterRpPrune) {
  // G4: required-precision pruning makes the whole graph one cluster.
  Graph g = designs::figure2_g4();
  transform::normalize_widths(g);
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 1);
  EXPECT_EQ(res.partition.clusters[0].size(), 4);
}

TEST(Clustering, Figure2MergesEvenWithoutTransform) {
  // The break conditions consume required precision directly, so the 5-bit
  // output already dissolves N1's boundary before any width rewriting; the
  // transform's role is shrinking the operators (Theorem 4.2), not this.
  Graph g = designs::figure2_g4();
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 1);
  const auto f = designs::figure_nodes(g);
  EXPECT_EQ(g.node(f.n3).width, 9);  // untouched widths
}

TEST(Clustering, Figure3FullyMergeable) {
  // G5: information content dissolves the apparent e7 boundary.
  Graph g = designs::figure3_g5();
  transform::normalize_widths(g);
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 1);
  EXPECT_EQ(res.partition.clusters[0].size(), 4);
}

TEST(Clustering, Figure3OldAlgorithmSplitsAtE7) {
  // The width-only baseline breaks at N3 (sign-extension of an apparently
  // truncated 8-bit sum).
  const Graph g = designs::figure3_g5();
  const auto p = cluster_leakage(g);
  const auto f = designs::figure_nodes(g);
  EXPECT_EQ(p.num_clusters(), 2);
  EXPECT_NE(cluster_of(p, f.n3), cluster_of(p, f.n4));
  EXPECT_TRUE(validate_partition(g, p).empty());
}

TEST(Clustering, NoMergeIsOnePerOperator) {
  const Graph g = designs::figure1_g2();
  const auto p = cluster_none(g);
  EXPECT_EQ(p.num_clusters(), 4);
  for (const auto& c : p.clusters) EXPECT_EQ(c.size(), 1);
}

TEST(Clustering, MultiplierOperandsBreak) {
  // Synthesizability Condition 1: adders feeding a multiplier cannot merge
  // with it.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto s1 = b.add(5, Operand{a, 5, Sign::Signed},
                        Operand{c, 5, Sign::Signed});
  const auto s2 = b.add(5, Operand{a, 5, Sign::Signed},
                        Operand{c, 5, Sign::Signed});
  const auto m = b.mul(10, Operand{s1, 10, Sign::Signed},
                       Operand{s2, 10, Sign::Signed});
  const auto t = b.add(11, Operand{m, 11, Sign::Signed},
                       Operand{a, 11, Sign::Signed});
  b.output("r", 11, Operand{t});
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 3);  // {s1}, {s2}, {m, t}
  EXPECT_EQ(cluster_of(res.partition, m), cluster_of(res.partition, t));
  EXPECT_NE(cluster_of(res.partition, s1), cluster_of(res.partition, m));
}

TEST(Clustering, FanoutToTwoClustersRoots) {
  // Synthesizability Condition 2: a node consumed by two different clusters
  // roots its own cluster.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto s = b.add(5, Operand{a, 5, Sign::Signed},
                       Operand{a, 5, Sign::Signed});
  const auto t1 = b.add(6, Operand{s, 6, Sign::Signed},
                        Operand{a, 6, Sign::Signed});
  const auto t2 = b.add(6, Operand{s, 6, Sign::Signed},
                        Operand{a, 6, Sign::Signed});
  b.output("r1", 6, Operand{t1});
  b.output("r2", 6, Operand{t2});
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 3);
  EXPECT_EQ(res.partition.clusters[cluster_of(res.partition, s)].root, s);
}

TEST(Clustering, ReconvergentFanoutInsideOneClusterMerges) {
  // x + x reconverging into the same cluster stays merged.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto s = b.add(6, Operand{a, 6, Sign::Signed},
                       Operand{c, 6, Sign::Signed});
  const auto t = b.add(7, Operand{s, 7, Sign::Signed},
                       Operand{s, 7, Sign::Signed});
  b.output("r", 7, Operand{t});
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 1);
  EXPECT_EQ(res.partition.clusters[0].size(), 2);
}

TEST(Flatten, SumOfAddendsWithSigns) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto d = b.input("d", 4);
  const auto s = b.sub(6, Operand{a, 6, Sign::Signed},
                       Operand{c, 6, Sign::Signed});
  const auto n = b.neg(7, Operand{s, 7, Sign::Signed});
  const auto t = b.add(8, Operand{n, 8, Sign::Signed},
                       Operand{d, 8, Sign::Signed});
  b.output("r", 8, Operand{t});
  const auto res = cluster_maximal(g);
  ASSERT_EQ(res.partition.num_clusters(), 1);
  const auto flat = flatten_cluster(g, res.partition, 0);
  // r = -(a - c) + d = -a + c + d: three terms, exactly one negated.
  ASSERT_EQ(flat.terms.size(), 3u);
  int negs = 0;
  for (const auto& t2 : flat.terms) {
    EXPECT_EQ(t2.factors.size(), 1u);
    negs += t2.negate ? 1 : 0;
  }
  EXPECT_EQ(negs, 1);
}

TEST(Flatten, ProductTermsCarryTwoFactors) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto m = b.mul(8, Operand{a, 8, Sign::Signed},
                       Operand{c, 8, Sign::Signed});
  const auto t = b.add(9, Operand{m, 9, Sign::Signed},
                       Operand{a, 9, Sign::Signed});
  b.output("r", 9, Operand{t});
  const auto res = cluster_maximal(g);
  ASSERT_EQ(res.partition.num_clusters(), 1);
  const auto flat = flatten_cluster(g, res.partition, 0);
  ASSERT_EQ(flat.terms.size(), 2u);
  std::multiset<std::size_t> sizes;
  for (const auto& t2 : flat.terms) sizes.insert(t2.factors.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 2}));
}

TEST(Flatten, ConstMultipleBecomesCoefficient) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto k = b.constant(4, 5);
  const auto m = b.mul(8, Operand{a, 8, Sign::Signed},
                       Operand{k, 8, Sign::Signed});
  const auto t = b.add(9, Operand{m, 9, Sign::Signed},
                       Operand{a, 9, Sign::Signed});
  b.output("r", 9, Operand{t});
  const auto res = cluster_maximal(g);
  ASSERT_EQ(res.partition.num_clusters(), 1);
  const auto& c = res.partition.clusters[0];
  const auto addends =
      cluster_addends(g, c, flatten_cluster(g, res.partition, 0), res.info);
  bool found = false;
  for (const auto& ad : addends) {
    if (ad.coefficient == 5) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Clustering, D1RebalancingMergesEverything) {
  // The paper's D1 narrative: the first information pass splits exactly like
  // the old algorithm; the rebalancing iterations prove the tight chain
  // bounds and merge the clusters.
  Graph g = designs::make_d1();
  transform::normalize_widths(g);

  ClusterOptions single;
  single.iterate_rebalancing = false;
  const auto first = cluster_maximal(g, single);
  const auto old = cluster_leakage(g);
  EXPECT_EQ(first.partition.num_clusters(), old.num_clusters());
  EXPECT_GT(old.num_clusters(), 1);

  const auto full = cluster_maximal(g);
  EXPECT_EQ(full.partition.num_clusters(), 1);
  EXPECT_GT(full.iterations, 1);  // merging happened in later iterations
  EXPECT_TRUE(validate_partition(g, full.partition).empty());
}

TEST(Clustering, D2RebalancingMergesEverything) {
  Graph g = designs::make_d2();
  transform::normalize_widths(g);
  const auto old = cluster_leakage(g);
  const auto full = cluster_maximal(g);
  EXPECT_GT(old.num_clusters(), full.partition.num_clusters());
  EXPECT_EQ(full.partition.num_clusters(), 1);
}

TEST(Clustering, D3ProductsMergeWithFinalAddition) {
  Graph g = designs::make_d3();
  const Graph original = g;
  transform::normalize_widths(g);
  const auto neu = cluster_maximal(g);
  const auto old = cluster_leakage(original);
  // Old: 8 pre-adders + 4 multipliers + 1 final tree = 13.
  // New: 8 pre-adders + 1 merged {multipliers + final tree} = 9.
  EXPECT_EQ(old.num_clusters(), 13);
  EXPECT_EQ(neu.partition.num_clusters(), 9);
}

TEST(Clustering, D4D5NewMergesMoreAndOldKeepsWidths) {
  for (auto make : {designs::make_d4, designs::make_d5}) {
    Graph g = make();
    const Graph original = g;
    transform::normalize_widths(g);
    const auto neu = cluster_maximal(g);
    const auto old = cluster_leakage(original);
    EXPECT_LT(neu.partition.num_clusters(), old.num_clusters());
    EXPECT_TRUE(validate_partition(g, neu.partition).empty());
    EXPECT_TRUE(validate_partition(original, old).empty());
  }
}

TEST(Clustering, ClusterCountsMonotoneAcrossFlows) {
  // New <= Old <= NoMerge on every testcase.
  for (const auto& tc : designs::all_testcases()) {
    Graph g = tc.graph;
    const auto none = cluster_none(g);
    const auto old = cluster_leakage(g);
    Graph t = g;
    transform::normalize_widths(t);
    const auto neu = cluster_maximal(t);
    EXPECT_LE(old.num_clusters(), none.num_clusters()) << tc.name;
    EXPECT_LE(neu.partition.num_clusters(), old.num_clusters()) << tc.name;
  }
}

TEST(Clustering, ZeroExtendedSignedProductBreaks) {
  // Regression for the exact-low-bits condition (DESIGN.md §2 item 4): an
  // exact signed 10-bit product carried *unsigned* into a 12-bit adder is
  // reinterpreted — merging through would regenerate the ideal (negative)
  // product and disagree above bit 10.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 5);
  const auto c = b.input("c", 5);
  const auto e = b.input("e", 12);
  const auto m = b.mul(10, Operand{a, 10, Sign::Signed},
                       Operand{c, 10, Sign::Signed});
  // Unsigned edge: zero-extends the signed product.
  const auto t = b.add(12, Operand{m, 12, Sign::Unsigned},
                       Operand{e, 12, Sign::Signed});
  b.output("r", 12, Operand{t});
  const auto res = cluster_maximal(g);
  EXPECT_EQ(res.partition.num_clusters(), 2);
  EXPECT_NE(cluster_of(res.partition, m), cluster_of(res.partition, t));

  // The same connection with a signed edge is exact and merges.
  Graph g2;
  Builder b2(g2);
  const auto a2 = b2.input("a", 5);
  const auto c2 = b2.input("c", 5);
  const auto e2 = b2.input("e", 12);
  const auto m2 = b2.mul(10, Operand{a2, 10, Sign::Signed},
                         Operand{c2, 10, Sign::Signed});
  const auto t2 = b2.add(12, Operand{m2, 12, Sign::Signed},
                         Operand{e2, 12, Sign::Signed});
  b2.output("r", 12, Operand{t2});
  const auto res2 = cluster_maximal(g2);
  EXPECT_EQ(res2.partition.num_clusters(), 1);
  EXPECT_EQ(cluster_of(res2.partition, m2), cluster_of(res2.partition, t2));
}

// Structural property: on random graphs, every clustering variant yields a
// valid partition (connected clusters, unique outputs, full coverage).
class PartitionValidity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionValidity, RandomGraphs) {
  Rng rng(GetParam());
  for (int t = 0; t < 8; ++t) {
    Graph g = dfg::random_graph(rng);
    {
      const auto p = cluster_none(g);
      EXPECT_TRUE(validate_partition(g, p).empty());
    }
    {
      const auto p = cluster_leakage(g);
      const auto errs = validate_partition(g, p);
      EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    }
    transform::normalize_widths(g);
    {
      const auto res = cluster_maximal(g);
      const auto errs = validate_partition(g, res.partition);
      EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionValidity,
                         ::testing::Values(71, 72, 73, 74, 75, 76, 77, 78));

}  // namespace
}  // namespace dpmerge::cluster
