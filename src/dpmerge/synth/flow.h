#pragma once

#include <string_view>

#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/netlist/netlist.h"
#include "dpmerge/obs/flow_report.h"
#include "dpmerge/obs/provenance.h"
#include "dpmerge/synth/cpa.h"

namespace dpmerge::synth {

/// The three synthesis flows compared in Section 7's tables.
enum class Flow {
  NoMerge,   ///< traditional: every operator synthesised standalone
  OldMerge,  ///< leakage-of-bits clustering, no width transformations
  NewMerge,  ///< the paper: RP/IC normalisation + iterative maximal merging
};

std::string_view to_string(Flow f);

struct SynthOptions {
  AdderArch adder = AdderArch::KoggeStone;
  /// Radix-4 Booth recoding for multiplier partial products (about half the
  /// CSA rows per product).
  bool booth_multipliers = false;
  /// Accepted and ignored; output and work are width-independent.
  int threads = 1;
};

struct FlowResult {
  dfg::Graph graph;  ///< the synthesised DFG (width-normalised for NewMerge)
  cluster::Partition partition;
  int cluster_iterations = 1;
  netlist::Netlist net;
  /// Per-stage observability breakdown (times, merge decisions, CSA/CPA
  /// structure, cell histogram). Always populated.
  obs::FlowReport report;
  /// Every merge decision the clusterer took (per-edge evidence + final
  /// node verdicts), recorded while the flow ran. Together with the
  /// netlist's gate owner tags this is the provenance chain the ledger and
  /// `dpmerge-explain` are built from.
  obs::prov::DecisionLog decisions;
};

/// Runs a complete flow: (transform) -> cluster -> netlist. The netlist's
/// input/output buses are named after the DFG's input/output nodes, so the
/// result can be simulated against the DFG interpreter directly.
FlowResult run_flow(const dfg::Graph& g, Flow flow,
                    const SynthOptions& opt = {});

/// The new-merge front-end in isolation: width normalisation and iterative
/// maximal clustering, with the Huffman refinements fed back into further
/// width pruning until a fixpoint (mutates `g`). Returns the final
/// clustering. When `fs` is given, the normalisation and clustering rounds
/// are reported as "normalize"/"cluster" stages. `threads` is accepted and
/// ignored; output and work are width-independent.
cluster::ClusterResult prepare_new_merge(dfg::Graph& g,
                                         obs::FlowScope* fs = nullptr,
                                         int threads = 1);

/// Fills a FlowReport's structural roll-ups from a finished flow: merge
/// decisions (arithmetic operators absorbed into a consumer's cluster),
/// CSA-tree rows and CPA counts (from the synth stage's sink counters), and
/// the netlist's cell histogram. Shared by `run_flow` and the ablation
/// bench's hand-driven flows.
void finalize_flow_report(obs::FlowReport& rep, const dfg::Graph& g,
                          const cluster::Partition& p,
                          const netlist::Netlist& net,
                          const obs::StatSink& sink);

/// Synthesises a DFG given an existing partition (the flows above all land
/// here; exposed for custom clusterings and the ablation bench).
netlist::Netlist synthesize_partition(const dfg::Graph& g,
                                      const cluster::Partition& p,
                                      const analysis::InfoAnalysis& ia,
                                      const SynthOptions& opt);

}  // namespace dpmerge::synth
