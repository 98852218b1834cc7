// Google-benchmark microbenchmarks: scaling of the paper's analyses and of
// the clustering algorithm with DFG size. The paper claims "efficient
// algorithms" (required precision and the information-content upper bound
// are single sweeps, O(V+E)); these benches demonstrate near-linear
// behaviour and measure the cost of the iterative merging loop. Synthesis,
// simulation, verification and timing optimisation are measured end to end
// by dpbench (`python3 dpbench/run.py`, see dpbench/README.md).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dpmerge/analysis/huffman.h"
#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/transform/width_prune.h"

namespace {

using namespace dpmerge;

dfg::Graph graph_of_size(int ops) {
  Rng rng(static_cast<std::uint64_t>(ops) * 2654435761u);
  dfg::RandomGraphOptions opt;
  opt.num_inputs = std::max(2, ops / 8);
  opt.num_operators = ops;
  opt.mul_fraction = 0.1;
  return dfg::random_graph(rng, opt);
}

void BM_RequiredPrecision(benchmark::State& state) {
  const auto g = graph_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_required_precision(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RequiredPrecision)->Range(16, 8192)->Complexity(benchmark::oN);

void BM_InfoContent(benchmark::State& state) {
  const auto g = graph_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::compute_info_content(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InfoContent)->Range(16, 8192)->Complexity(benchmark::oN);

void BM_NormalizeWidths(benchmark::State& state) {
  const auto g = graph_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    dfg::Graph copy = g;
    state.ResumeTiming();
    transform::normalize_widths(copy);
  }
}
BENCHMARK(BM_NormalizeWidths)->Range(16, 4096);

void BM_ClusterMaximal(benchmark::State& state) {
  auto g = graph_of_size(static_cast<int>(state.range(0)));
  transform::normalize_widths(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::cluster_maximal(g));
  }
}
BENCHMARK(BM_ClusterMaximal)->Range(16, 4096);

void BM_ClusterLeakage(benchmark::State& state) {
  const auto g = graph_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::cluster_leakage(g));
  }
}
BENCHMARK(BM_ClusterLeakage)->Range(16, 4096);

void BM_HuffmanRebalancing(benchmark::State& state) {
  std::vector<analysis::Addend> addends;
  Rng rng(9);
  for (int i = 0; i < state.range(0); ++i) {
    addends.push_back(
        {{static_cast<int>(rng.uniform(2, 24)), Sign::Unsigned}, 1});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::huffman_rebalanced_bound(addends));
  }
}
BENCHMARK(BM_HuffmanRebalancing)->Range(8, 4096);

// The fir_100000 shape: one cluster of constant-multiple addends,
// coefficients 1-64 (Observation 5.9 folds each into |c| copies) over
// operand contents 2-24 bits wide.
void BM_HuffmanRebalancingFir(benchmark::State& state) {
  std::vector<analysis::Addend> addends;
  Rng rng(11);
  for (int i = 0; i < state.range(0); ++i) {
    addends.push_back({{static_cast<int>(rng.uniform(2, 24)), Sign::Unsigned},
                       rng.uniform(1, 64)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::huffman_rebalanced_bound(addends));
  }
}
BENCHMARK(BM_HuffmanRebalancingFir)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN: the shared dpmerge flags
// (--trace, --stats-json, ...) are stripped first, everything else goes to
// google-benchmark's own parser. With --trace, the spans recorded inside
// the benched code paths are exported as a Chrome trace.
int main(int argc, char** argv) {
  const dpmerge::bench::BenchArgs args =
      dpmerge::bench::parse_bench_args(argc, argv, /*allow_unknown=*/true);
  dpmerge::bench::ObsSession obs_session("perf_analysis", args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
