// FIR filter example: y = sum_k h_k * x_k for an 8-tap filter with constant
// integer coefficients — the classic DSP workload the paper's introduction
// motivates. Constant multiplies are exactly the "sum of constant multiples
// of inputs" form of Observation 5.9, so the whole filter merges into one
// CSA tree, and Huffman rebalancing proves a tight output width.

#include <cstdio>
#include <cstdlib>

#include "dpmerge/analysis/huffman.h"
#include "dpmerge/cluster/flatten.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"

int main() {
  using namespace dpmerge;
  using dfg::Operand;

  // A symmetric low-pass-ish tap set.
  const int taps[8] = {1, 3, 7, 12, 12, 7, 3, 1};
  constexpr int kSample = 8;   // input sample width
  constexpr int kAcc = 16;     // accumulator width in the "RTL"

  dfg::Graph g;
  dfg::Builder b(g);
  dfg::NodeId acc{};
  for (int k = 0; k < 8; ++k) {
    const std::string tap = std::to_string(k);
    const auto x = b.input(std::string("x").append(tap), kSample);
    const auto h = b.constant(8, taps[k], std::string("h").append(tap));
    const auto m = b.mul(kAcc, Operand{x, kAcc, Sign::Signed},
                         Operand{h, kAcc, Sign::Signed});
    acc = k == 0 ? m
                 : b.add(kAcc, Operand{acc, kAcc, Sign::Signed},
                         Operand{m, kAcc, Sign::Signed});
  }
  b.output("y", kAcc, Operand{acc, kAcc, Sign::Signed});

  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  std::printf("8-tap FIR, %d-bit samples, coefficients {1,3,7,12,12,7,3,1}\n\n",
              kSample);
  for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                    synth::Flow::NewMerge}) {
    const auto res = synth::run_flow(g, flow);
    const auto rep = sta.analyze(res.net);
    std::printf("%-9s : %2d clusters, %5d gates, %.2f ns, area %.0f\n",
                std::string(synth::to_string(flow)).c_str(),
                res.partition.num_clusters(), res.net.gate_count(),
                rep.longest_path_ns, sta.area(res.net));
  }

  // The Observation 5.9 view: y as a sum of constant multiples, with the
  // Huffman-rebalanced bound on its information content.
  {
    dfg::Graph work = g;
    const auto cr = synth::prepare_new_merge(work);
    std::printf("\nnew-merge clustering: %s\n",
                cr.partition.summary(work).c_str());
    for (int ci = 0; ci < cr.partition.num_clusters(); ++ci) {
      const auto& c = cr.partition.clusters[static_cast<std::size_t>(ci)];
      const auto bound =
          cluster::rebalanced_cluster_bound(work, cr.partition, ci, cr.info);
      std::printf("cluster rooted at node %d: rebalanced output bound %s\n",
                  c.root.value, bound.to_string().c_str());
    }
  }

  // Sanity: the merged netlist really filters.
  const auto res = synth::run_flow(g, synth::Flow::NewMerge);
  Rng rng(2024);
  std::string why;
  if (!synth::verify_netlist(res.net, g, 50, rng, &why)) {
    std::printf("verification FAILED: %s\n", why.c_str());
    return 1;
  }
  std::printf("\nnetlist verified against the DFG reference on 50 random "
              "sample vectors\n");
  return 0;
}
