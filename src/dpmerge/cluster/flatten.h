#pragma once

#include <vector>

#include "dpmerge/analysis/huffman.h"
#include "dpmerge/analysis/info_content.h"
#include "dpmerge/cluster/partition.h"
#include "dpmerge/support/inline_list.h"

namespace dpmerge::cluster {

/// The entry edges of one term, stored inline (a term has 1 or 2), so
/// flattening a cluster allocates nothing per term.
using FactorList = support::InlineList<dfg::EdgeId, 2>;

/// One addend of a cluster's sum-of-addends form (Section 3): an optionally
/// negated product of at most two signals entering the cluster. Signals are
/// identified by the entry edges that deliver them; a product of two entry
/// signals comes from a member multiplier (whose operands Synthesizability
/// Condition 1 forces to be cluster inputs).
struct Term {
  bool negate = false;
  FactorList factors;  ///< 1 (plain signal) or 2 (product).
  /// Width of the node that consumed the factors (the entry operand width):
  /// the factor values are the operands delivered at this width.
  int consumed_width = 0;
  /// Accumulated constant left-shift from Shl members on the path to the
  /// root: the addend's weight is scaled by 2^shift (columns shift left).
  int shift = 0;
};

/// A cluster's output expressed as a sum of terms over its entry signals.
struct FlattenedCluster {
  std::vector<Term> terms;
};

/// Flattens cluster `ci` of `p` into sum-of-addends form by a walk from its
/// root over member nodes. Membership is read from `p.cluster_of`, so the
/// cost is O(|terms| + |members visited|), independent of the graph size.
/// Reconvergent member fanout duplicates terms (x + x), which is the correct
/// multiset semantics.
FlattenedCluster flatten_cluster(const dfg::Graph& g, const Partition& p,
                                 int ci);

/// Converts a flattened cluster into the addend multiset consumed by
/// Huffman_Rebalancing (Section 5.2), using the information-content claims
/// of the entry operands. A multiplication by a Const entry whose value
/// fits 63 bits becomes a coefficient (Observation 5.9: c*I is |c| copies of
/// ±I); other products contribute a single addend with the product's
/// intrinsic content.
std::vector<analysis::Addend> cluster_addends(const dfg::Graph& g,
                                              const Cluster& c,
                                              const FlattenedCluster& flat,
                                              const analysis::InfoAnalysis& ia);

/// The rebalanced upper bound on the information content of cluster `ci`'s
/// output: Huffman_Rebalancing over `cluster_addends`.
analysis::InfoContent rebalanced_cluster_bound(const dfg::Graph& g,
                                               const Partition& p, int ci,
                                               const analysis::InfoAnalysis& ia);

}  // namespace dpmerge::cluster
