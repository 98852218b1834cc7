// Google-benchmark microbenchmarks: scaling of the paper's analyses and of
// the clustering algorithm with DFG size. The paper claims "efficient
// algorithms" (required precision and the information-content upper bound
// are single sweeps, O(V+E)); these benches demonstrate near-linear
// behaviour and measure the cost of the iterative merging loop and of full
// synthesis.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dpmerge/analysis/huffman.h"
#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/designs/kernels.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/packed_sim.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
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

void BM_FullFlow(benchmark::State& state) {
  const auto g = graph_of_size(static_cast<int>(state.range(0)));
  const auto flow = static_cast<synth::Flow>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::run_flow(g, flow));
  }
  state.SetLabel(std::string(synth::to_string(flow)));
}
BENCHMARK(BM_FullFlow)
    ->ArgsProduct({{64, 256, 1024}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

/// The largest DSP kernel by synthesized gate count under the full
/// new-merge flow — the verification-heavy workload of the acceptance
/// criteria. Synthesized once and shared by the sim/verify benches.
struct LargestKernel {
  std::string name;
  dfg::Graph graph;
  netlist::Netlist net;
};

const LargestKernel& largest_kernel() {
  static const LargestKernel k = [] {
    LargestKernel best;
    int best_gates = -1;
    for (auto& kern : designs::dsp_kernels()) {
      auto res = synth::run_flow(kern.graph, synth::Flow::NewMerge);
      if (res.net.gate_count() > best_gates) {
        best_gates = res.net.gate_count();
        best.name = kern.name;
        best.graph = kern.graph;
        best.net = std::move(res.net);
      }
    }
    return best;
  }();
  return k;
}

// 64 stimulus vectors through the netlist in one word-parallel pass.
void BM_PackedSim(benchmark::State& state) {
  const auto& k = largest_kernel();
  Rng rng(11);
  std::vector<std::vector<BitVector>> stimuli(netlist::PackedSimulator::kLanes);
  for (auto& lane : stimuli) {
    for (const auto& bus : k.net.inputs()) {
      lane.push_back(rng.bits(bus.signal.width()));
    }
  }
  netlist::PackedSimulator vec(k.net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vec.run_batch(stimuli));
  }
  state.SetItemsProcessed(state.iterations() *
                          netlist::PackedSimulator::kLanes);
  state.SetLabel(k.name + "/packed");
}
BENCHMARK(BM_PackedSim)->Unit(benchmark::kMicrosecond);

// Full Monte-Carlo equivalence check, 256 trials, lane-batched.
void BM_VerifyNetlist(benchmark::State& state) {
  const auto& k = largest_kernel();
  for (auto _ : state) {
    Rng rng(42);  // per-iteration reseed: identical stimulus sequence
    if (!synth::verify_netlist(k.net, k.graph, 256, rng)) {
      state.SkipWithError("verification mismatch");
    }
  }
  state.SetLabel(k.name + "/packed");
}
BENCHMARK(BM_VerifyNetlist)->Unit(benchmark::kMillisecond);

// The timing-update kernel of the optimizer's sizing loop: apply a
// pseudo-random drive change, then re-time — full Sta::analyze (arg 0) vs
// IncrementalSta forward-cone update (arg 1).
void BM_TimingOptIncremental(benchmark::State& state) {
  const auto& k = largest_kernel();
  netlist::Netlist net = k.net;  // mutated copy
  const auto& lib = netlist::CellLibrary::tsmc025();
  const bool incremental = state.range(0) != 0;
  Rng rng(7);
  std::vector<std::pair<int, int>> changes;  // (gate, new drive)
  for (int i = 0; i < 256; ++i) {
    changes.emplace_back(
        static_cast<int>(rng.uniform(0, net.gate_count() - 1)),
        static_cast<int>(rng.uniform(0, netlist::kDriveLevels - 1)));
  }
  netlist::Sta sta(lib);
  netlist::IncrementalSta ista(net, lib);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [gi, drive] = changes[i++ % changes.size()];
    net.set_drive(netlist::GateId{gi}, drive);
    if (incremental) {
      ista.update_drive_change(netlist::GateId{gi});
      benchmark::DoNotOptimize(ista.longest_path_ns());
    } else {
      benchmark::DoNotOptimize(sta.analyze(net).longest_path_ns);
    }
  }
  state.SetLabel(k.name + (incremental ? "/incremental" : "/full"));
}
BENCHMARK(BM_TimingOptIncremental)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

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
