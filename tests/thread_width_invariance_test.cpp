// The width-independence contract of the new-merge front end: the `threads`
// knobs (`prepare_new_merge(g, fs, threads)` and `SynthOptions::threads`)
// are accepted and ignored, so every width must reproduce the serial run
// exactly — partitions, iteration trajectories, refinements, DecisionLogs
// (byte-for-byte JSON), `cluster.*` stat counters and emitted Verilog — on
// random DFGs, the paper testcases D1-D5 and the 10k-node scale suite. The
// one exception is the Verilog of matmul_10404: its 12M-gate netlist prints
// ~0.8 GB of text, so the flow check takes the 1k suite's matmul instead
// (its front end is still checked at 10k).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "dpmerge/designs/scale.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/obs/provenance.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/support/thread_pool.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

// Give the shared pool real workers even on single-core machines, so any
// front-end stage that submitted pool work would really run multi-threaded
// (the pool is sized at first use; this runs before main()).
const bool kForcePool = [] {
  support::ThreadPool::set_shared_threads(4);
  return true;
}();

struct Named {
  std::string name;
  dfg::Graph graph;
};

std::vector<Named> paper_testcases() {
  std::vector<Named> out;
  for (auto& t : designs::all_testcases()) {
    out.push_back({t.name, std::move(t.graph)});
  }
  return out;
}

/// 200 random DFGs of 10..59 operators.
std::vector<Named> random_graphs() {
  std::vector<Named> out;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    dfg::RandomGraphOptions opt;
    opt.num_operators = 10 + static_cast<int>(seed % 50);
    out.push_back({"seed " + std::to_string(seed), dfg::random_graph(rng, opt)});
  }
  return out;
}

/// The 10k scale suite; `for_flow` swaps its matmul for the 1k suite's.
std::vector<Named> scale_10k(bool for_flow) {
  std::vector<Named> out;
  for (auto& d : designs::scale_suite(10000)) {
    if (for_flow && d.name.rfind("matmul", 0) == 0) {
      for (auto& small : designs::scale_suite(1000)) {
        if (small.name.rfind("matmul", 0) == 0) {
          out.push_back({small.name, std::move(small.graph)});
        }
      }
      continue;
    }
    out.push_back({d.name, std::move(d.graph)});
  }
  return out;
}

struct FrontEndRun {
  cluster::ClusterResult result;
  std::string decisions_json;
  std::string cluster_stats;
};

FrontEndRun prepare(const dfg::Graph& design, int threads) {
  FrontEndRun r;
  dfg::Graph g = design;
  obs::prov::DecisionLog log;
  obs::StatSink sink;
  {
    obs::prov::DecisionScope ds(&log);
    obs::StatScope ss(&sink);
    r.result = synth::prepare_new_merge(g, nullptr, threads);
  }
  log.to_json(r.decisions_json);
  for (const auto& [k, v] : sink.values()) {
    if (k.rfind("cluster.", 0) == 0) {
      r.cluster_stats += k + "=" + std::to_string(v) + "\n";
    }
  }
  return r;
}

void expect_identical(const FrontEndRun& got, const FrontEndRun& ref,
                      const std::string& what) {
  const auto& gp = got.result.partition;
  const auto& rp = ref.result.partition;
  ASSERT_EQ(gp.cluster_of, rp.cluster_of) << what;
  ASSERT_EQ(gp.num_clusters(), rp.num_clusters()) << what;
  for (std::size_t ci = 0; ci < rp.clusters.size(); ++ci) {
    const auto& a = gp.clusters[ci];
    const auto& b = rp.clusters[ci];
    EXPECT_EQ(a.root, b.root) << what << " cluster " << ci;
    EXPECT_EQ(a.nodes, b.nodes) << what << " cluster " << ci;
    EXPECT_EQ(a.input_edges, b.input_edges) << what << " cluster " << ci;
  }
  EXPECT_EQ(got.result.iterations, ref.result.iterations) << what;
  ASSERT_EQ(got.result.per_iteration.size(), ref.result.per_iteration.size())
      << what;
  for (std::size_t i = 0; i < ref.result.per_iteration.size(); ++i) {
    EXPECT_EQ(got.result.per_iteration[i].clusters,
              ref.result.per_iteration[i].clusters)
        << what << " iteration " << i;
    EXPECT_EQ(got.result.per_iteration[i].refined_roots,
              ref.result.per_iteration[i].refined_roots)
        << what << " iteration " << i;
  }
  ASSERT_EQ(got.result.refinements.size(), ref.result.refinements.size())
      << what;
  for (std::size_t i = 0; i < ref.result.refinements.size(); ++i) {
    const auto& a = got.result.refinements[i];
    const auto& b = ref.result.refinements[i];
    ASSERT_EQ(a.has_value(), b.has_value()) << what << " node " << i;
    if (a) {
      EXPECT_EQ(a->width, b->width) << what << " node " << i;
      EXPECT_EQ(a->sign, b->sign) << what << " node " << i;
    }
  }
  EXPECT_EQ(got.decisions_json, ref.decisions_json) << what;
  EXPECT_EQ(got.cluster_stats, ref.cluster_stats) << what;
}

/// Runs the front end at width 1 and at each of `widths`, and checks every
/// run against the width-1 one.
void expect_width_invariant(const std::vector<Named>& corpus,
                            std::initializer_list<int> widths) {
  for (const Named& d : corpus) {
    const FrontEndRun ref = prepare(d.graph, 1);
    EXPECT_FALSE(ref.cluster_stats.empty()) << d.name;
    for (int threads : widths) {
      expect_identical(prepare(d.graph, threads), ref,
                       d.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelClusterTest, RandomGraphSweepBitIdentical) {
  expect_width_invariant(random_graphs(), {4});
}

TEST(ParallelClusterTest, PaperTestcasesBitIdentical) {
  expect_width_invariant(paper_testcases(), {0, 4});
}

// The large designs: the 10k-node scale suite (layered, matmul, ...).
TEST(ParallelClusterTest, LargeDesignsExerciseChunkedSweep) {
  expect_width_invariant(scale_10k(/*for_flow=*/false), {0, 4});
}

TEST(ParallelClusterTest, ThreadsZeroMeansAuto) {
  expect_width_invariant(random_graphs(), {0});
}

/// Hash and length of the new-merge Verilog at one width; only the
/// fingerprint outlives the call, so the two runs never coexist in memory.
std::pair<std::size_t, std::size_t> verilog_fingerprint(const dfg::Graph& g,
                                                        int threads) {
  synth::SynthOptions opt;
  opt.threads = threads;
  const std::string v = netlist::to_verilog(
      synth::run_flow(g, synth::Flow::NewMerge, opt).net, "tw");
  return {std::hash<std::string>{}(v), v.size()};
}

TEST(ThreadWidthInvariance, RunFlowVerilogAtWidths1And4) {
  std::vector<Named> corpus = paper_testcases();
  for (Named& d : scale_10k(/*for_flow=*/true)) corpus.push_back(std::move(d));
  for (const Named& d : corpus) {
    EXPECT_EQ(verilog_fingerprint(d.graph, 1), verilog_fingerprint(d.graph, 4))
        << d.name;
  }
}

}  // namespace
}  // namespace dpmerge
