#pragma once

#include <vector>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/cluster/flatten.h"
#include "dpmerge/cluster/partition.h"
#include "dpmerge/netlist/netlist.h"
#include "dpmerge/synth/cpa.h"

namespace dpmerge::synth {

/// Statistics about one synthesised cluster (reported by benches).
struct ClusterSynthStats {
  int addend_rows = 0;
  int csa_stages = 0;
  bool used_cpa = false;
};

/// Synthesises cluster `ci` of `p` as a sum of addends: every term of the
/// flattened form contributes rows to a single CSA tree at the root's width W
/// (products contribute their partial-product rows directly — no
/// intermediate carry-propagate adder), and one final CPA produces the
/// cluster output.
///
/// `node_signals` must hold the already-synthesised signal of every node
/// feeding the cluster; extension signedness of addends comes from the
/// information-content claims (`ia`), which the break conditions guarantee
/// to be exact wherever it matters (see DESIGN.md §5).
/// `booth` switches product rows from simple AND-array partial products to
/// radix-4 (modified Booth) recoding — roughly half the rows per
/// multiplier, the optimisation the paper's reference chain ([4], [5])
/// applies inside CSA trees.
netlist::Signal synthesize_cluster(
    netlist::Netlist& net, const dfg::Graph& g, const cluster::Partition& p,
    int ci, const analysis::InfoAnalysis& ia,
    const std::vector<netlist::Signal>& node_signals, AdderArch arch,
    bool booth = false, ClusterSynthStats* stats = nullptr);

/// The operand signal delivered by edge `e` (the netlist twin of
/// Evaluator::operand_via_edge): source signal resized to w(e) with t(e),
/// then to the destination width with t(e) (or the Extension node's t(N)).
netlist::Signal operand_signal(netlist::Netlist& net, const dfg::Graph& g,
                               dfg::EdgeId e,
                               const std::vector<netlist::Signal>& signals);

}  // namespace dpmerge::synth
