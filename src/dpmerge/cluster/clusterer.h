#pragma once

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/cluster/partition.h"

namespace dpmerge::cluster {

/// Knobs for the Section 6 maximal-clustering algorithm; the defaults run
/// the full paper algorithm. Switching `iterate_rebalancing` off yields the
/// single-pass variant (used by the ablation bench). The refinement loop
/// runs at most 16 iterations; it converges long before that in practice
/// (widths only shrink).
struct ClusterOptions {
  bool iterate_rebalancing = true;
};

/// What one iteration of the maximal-merging loop produced: the partition
/// size, how many arithmetic operators were merged into a consumer's
/// cluster, and how many cluster-output bounds the Huffman rebalancing
/// tightened (driving the next iteration). Surfaced by the ablation bench
/// and the obs flow reports — the observable form of the paper's
/// "iterative maximal merging converges in a few iterations" claim.
struct ClusterIterationStat {
  int clusters = 0;
  int merged_nodes = 0;
  int refined_roots = 0;
};

/// Result of the iterative maximal-clustering algorithm, including the final
/// analyses (the synthesizer reuses the information-content claims to derive
/// addend signedness).
struct ClusterResult {
  Partition partition;
  analysis::InfoAnalysis info;
  analysis::RequiredPrecision rp;
  int iterations = 0;
  /// One entry per iteration, in order (across `prepare_new_merge`'s outer
  /// width-feedback rounds too).
  std::vector<ClusterIterationStat> per_iteration;
  /// Per-node refined intrinsic bounds discovered by cluster rebalancing.
  analysis::InfoRefinements refinements;
};

/// The paper's new algorithm (Section 6): identifies break nodes from the
/// required-precision and information-content analyses, partitions, then
/// iteratively tightens cluster-output bounds by Huffman rebalancing
/// (Section 5.2) and re-partitions until a fixpoint. The graph should
/// normally be width-normalised first (transform::normalize_widths).
///
/// Break-node conditions implemented (Section 6, with the corrections
/// documented in DESIGN.md §2):
///  - Safety 1: some out-edge's destination is an Extension node (or any
///    non-arithmetic node: primary outputs end clusters too).
///  - Safety 2: min{î_int(N), max r(p_d)} > w(N) — the node truncates real
///    information that a consumer later widens.
///  - Safety 2' (per-edge analogue): min{î(p_src), r(p_d)} > w(e) for some
///    out-edge — the truncate-then-extend happens on the edge itself.
///  - Synthesizability 1: some out-edge feeds a multiplier.
///  - Synthesizability 2: fanout to more than one cluster (enforced during
///    partitioning; see partition_from_breaks).
ClusterResult cluster_maximal(const dfg::Graph& g,
                              const ClusterOptions& opt = {});

/// The "old merging algorithm" baseline of Section 7: mergeability analysis
/// with a width-only criterion similar to the leakage-of-bits notion of Kim,
/// Jao & Tjiang (DAC'98) — natural operator widths are computed from operand
/// *widths* rather than information content, there are no width-reducing
/// transformations and no rebalancing iteration.
Partition cluster_leakage(const dfg::Graph& g);

/// No merging at all: every arithmetic operator is its own cluster
/// (the "No mg" rows of Table 1).
Partition cluster_none(const dfg::Graph& g);

}  // namespace dpmerge::cluster
