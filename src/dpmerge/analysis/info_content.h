#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dpmerge/dfg/graph.h"
#include "dpmerge/support/sign.h"

namespace dpmerge::analysis {

/// Information content of a signal (Definition 5.1): the tuple <i, t> such
/// that, for all input stimuli, the signal equals the t-extension of its i
/// least significant bits. Exact computation is NP-hard (Theorem 5.3); this
/// library computes and manipulates sound *upper bounds* <î, t̂> throughout,
/// following the paper's convention of calling the bounds "information
/// content" as well.
struct InfoContent {
  int width = 0;
  Sign sign = Sign::Unsigned;

  bool operator==(const InfoContent&) const = default;
  std::string to_string() const;
};

/// Intrinsic (lossless, "ideal integer domain") information content of the
/// datapath operators, per Lemma 5.4 — with one documented deviation: for
/// *mixed* signedness operands the paper's <max{i1,i2}+1, t1|t2> is unsound
/// (see DESIGN.md §2); we normalise the unsigned operand <i,u> -> <i+1,s>
/// first, which is both sound and tight. Zero-width operands (constant 0)
/// are folded exactly.
InfoContent ic_add(InfoContent a, InfoContent b);
InfoContent ic_sub(InfoContent a, InfoContent b);
InfoContent ic_mul(InfoContent a, InfoContent b);
InfoContent ic_neg(InfoContent a);

/// The stronger of two valid claims about the same signal: the one with the
/// smaller width (ties keep `a`).
InfoContent ic_meet(InfoContent a, InfoContent b);

/// Clips an intrinsic bound to a node width w(N): the information content at
/// an output port is the smaller of the intrinsic content and the width
/// (Section 5).
InfoContent ic_clip(InfoContent ic, int width);

/// Propagates a claim across a resize: the signal (carrier width
/// `from_width`, valid claim `ic`) is resized to `to_width` with extension
/// type `ext`. Returns a valid claim for the resized signal. Implements the
/// truncation rule, the paper's "interesting case" (unsigned content across a
/// signed extension stays unsigned when the extension is strict), and —
/// applied with an Extension node's <w(N), t(N)> — Observation 6.1.
InfoContent ic_resize(InfoContent ic, int from_width, int to_width, Sign ext);

/// Results of forward information-content propagation over a DFG
/// (Section 5): all vectors are indexed by node/edge id.
struct InfoAnalysis {
  /// î at each node's output port (clipped to the node width).
  std::vector<InfoContent> at_output_port;
  /// î_int: intrinsic content of each node, in the ideal domain (not clipped
  /// by w(N)); for Input/Const/Extension nodes this equals `at_output_port`.
  /// Safety Condition 2 of the clustering algorithm compares this against
  /// w(N) to detect genuine truncation.
  std::vector<InfoContent> intrinsic;
  /// î of the signal carried on each edge (after the w(e)/t(e) resize).
  std::vector<InfoContent> at_edge;
  /// î of the operand delivered by each edge into its destination node
  /// (after the second resize to the destination width).
  std::vector<InfoContent> at_operand;

  InfoContent out(dfg::NodeId n) const {
    return at_output_port[static_cast<std::size_t>(n.value)];
  }
  InfoContent intr(dfg::NodeId n) const {
    return intrinsic[static_cast<std::size_t>(n.value)];
  }
  InfoContent edge(dfg::EdgeId e) const {
    return at_edge[static_cast<std::size_t>(e.value)];
  }
  InfoContent operand(dfg::EdgeId e) const {
    return at_operand[static_cast<std::size_t>(e.value)];
  }
};

/// Per-node refinements of intrinsic information content, produced by the
/// cluster rebalancing step (Section 5.2); `ic_intrinsic` meets each node's
/// intrinsic bound with its refinement, if present.
using InfoRefinements = std::vector<std::optional<InfoContent>>;

/// The claims an edge puts on its operand (Section 2.2): `carried` after the
/// first resize to <w(e), t(e)>, `delivered` after the second resize to the
/// destination width with `dfg::delivery_sign` (Definition 5.5 for an
/// Extension destination).
struct EdgeClaims {
  InfoContent carried;
  InfoContent delivered;
};

/// The per-node information-content transfer, in two steps. The analysis
/// (`compute_info_content`) and the width transformations that act on its
/// claims (`transform::prune_info_content`) both take exactly these steps.
///
/// Step 1, per in-edge: what edge `e` carries and delivers into `dst`,
/// given the claim `src` at its source's output port, `src_width` wide.
EdgeClaims ic_edge(InfoContent src, int src_width, const dfg::Edge& e,
                   const dfg::Node& dst);

/// Step 2: the intrinsic claim of node `n` from the claims delivered into
/// its ports (`operands[p]` for port p): <w(N), t(N)> for an Input, the
/// exact claim of a Const, Lemma 5.4 for an operator, the operand itself
/// for an Output or Extension. It is met with the node's refinement when
/// `refinements` holds one. The output-port claim is
/// `ic_clip(intrinsic, w(N))`.
InfoContent ic_intrinsic(const dfg::Node& n,
                         std::span<const InfoContent> operands,
                         const InfoRefinements* refinements);

/// Single forward (inputs-to-outputs) sweep over the graph's frozen CSR
/// view, O(V + E). `threads` is accepted and ignored; output and work are
/// width-independent.
InfoAnalysis compute_info_content(const dfg::Graph& g,
                                  const InfoRefinements& refinements = {},
                                  int threads = 1);

}  // namespace dpmerge::analysis
