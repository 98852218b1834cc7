// The partition builder and the cluster flattener against their reference
// oracles (cluster_oracle.h): every flow's partition of the paper designs,
// the DSP kernels and the 1k/10k scale suite, plus random break vectors on
// random graphs.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "cluster_oracle.h"
#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/scale.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge::cluster {
namespace {

struct Named {
  std::string name;
  dfg::Graph graph;
};

std::vector<Named> corpus(bool with_10k) {
  std::vector<Named> out;
  for (auto& t : designs::all_testcases()) {
    out.push_back({t.name, std::move(t.graph)});
  }
  for (auto& k : designs::dsp_kernels()) {
    out.push_back({k.name, std::move(k.graph)});
  }
  for (int size : {1000, 10000}) {
    if (size == 10000 && !with_10k) continue;
    for (auto& d : designs::scale_suite(size)) {
      out.push_back({d.name, std::move(d.graph)});
    }
  }
  return out;
}

void expect_same_partition(const Partition& got, const Partition& want,
                           const std::string& what) {
  ASSERT_EQ(got.cluster_of, want.cluster_of) << what;
  ASSERT_EQ(got.num_clusters(), want.num_clusters()) << what;
  for (std::size_t ci = 0; ci < want.clusters.size(); ++ci) {
    const Cluster& a = got.clusters[ci];
    const Cluster& b = want.clusters[ci];
    ASSERT_EQ(a.root, b.root) << what << " cluster " << ci;
    ASSERT_EQ(a.nodes, b.nodes) << what << " cluster " << ci;
    ASSERT_EQ(a.input_edges, b.input_edges) << what << " cluster " << ci;
  }
}

void expect_same_flatten(const dfg::Graph& g, const Partition& p,
                         const std::string& what) {
  for (int ci = 0; ci < p.num_clusters(); ++ci) {
    const FlattenedCluster got = flatten_cluster(g, p, ci);
    const FlattenedCluster want =
        oracle::flatten_cluster(g, p.clusters[static_cast<std::size_t>(ci)]);
    ASSERT_EQ(got.terms.size(), want.terms.size())
        << what << " cluster " << ci;
    for (std::size_t k = 0; k < want.terms.size(); ++k) {
      const Term& a = got.terms[k];
      const Term& b = want.terms[k];
      ASSERT_EQ(a.negate, b.negate) << what << " cluster " << ci;
      ASSERT_EQ(a.consumed_width, b.consumed_width) << what;
      ASSERT_EQ(a.shift, b.shift) << what;
      ASSERT_EQ(a.factors.size(), b.factors.size()) << what;
      for (std::size_t f = 0; f < b.factors.size(); ++f) {
        ASSERT_EQ(a.factors[f], b.factors[f]) << what;
      }
    }
  }
}

std::vector<bool> random_breaks(const dfg::Graph& g, Rng& rng, double p) {
  std::vector<bool> brk(static_cast<std::size_t>(g.node_count()));
  for (std::size_t i = 0; i < brk.size(); ++i) brk[i] = rng.chance(p);
  return brk;
}

TEST(ClusterOracle, FlattenMatchesOracleOnEveryFlow) {
  for (auto& d : corpus(/*with_10k=*/true)) {
    expect_same_flatten(d.graph, cluster_none(d.graph), d.name + "/no-merge");
    expect_same_flatten(d.graph, cluster_leakage(d.graph),
                        d.name + "/old-merge");
    dfg::Graph g = d.graph;
    const ClusterResult cr = synth::prepare_new_merge(g);
    expect_same_flatten(g, cr.partition, d.name + "/new-merge");
  }
}

TEST(ClusterOracle, PartitionMatchesOracleOnDesigns) {
  Rng rng(77);
  for (auto& d : corpus(/*with_10k=*/true)) {
    const dfg::Graph& g = d.graph;
    // p = 0 and p = 1 are the no-break and all-break vectors.
    for (double p : {0.0, 0.05, 0.3, 1.0}) {
      const std::vector<bool> brk = random_breaks(g, rng, p);
      const Partition got = partition_from_breaks(g, brk);
      const std::string what = d.name + " p=" + std::to_string(p);
      expect_same_partition(got, oracle::partition_from_breaks(g, brk), what);
      EXPECT_TRUE(validate_partition(g, got).empty()) << what;
    }
  }
}

TEST(ClusterOracle, PartitionMatchesOracleOnRandomGraphs) {
  Rng rng(2026);
  for (int t = 0; t < 300; ++t) {
    dfg::RandomGraphOptions opt;
    opt.num_inputs = static_cast<int>(rng.uniform(1, 6));
    opt.num_operators = static_cast<int>(rng.uniform(1, 60));
    const dfg::Graph g = dfg::random_graph(rng, opt);
    const std::vector<bool> brk =
        random_breaks(g, rng, rng.chance(0.5) ? 0.1 : 0.5);
    const Partition got = partition_from_breaks(g, brk);
    const std::string what = "random graph " + std::to_string(t);
    expect_same_partition(got, oracle::partition_from_breaks(g, brk), what);
    EXPECT_TRUE(validate_partition(g, got).empty()) << what;
    expect_same_flatten(g, got, what);
  }
}

}  // namespace
}  // namespace dpmerge::cluster
