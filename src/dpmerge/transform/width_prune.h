#pragma once

#include <string>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/dfg/graph.h"

namespace dpmerge::transform {

/// Bookkeeping for the width-pruning passes; `bits_removed` counts the total
/// reduction in node widths (a proxy for datapath hardware saved before any
/// synthesis runs).
struct PruneStats {
  int nodes_narrowed = 0;
  int edges_narrowed = 0;
  int extensions_inserted = 0;
  int bits_removed = 0;

  PruneStats& operator+=(const PruneStats& o) {
    nodes_narrowed += o.nodes_narrowed;
    edges_narrowed += o.edges_narrowed;
    extensions_inserted += o.extensions_inserted;
    bits_removed += o.bits_removed;
    return *this;
  }
  bool changed() const {
    return nodes_narrowed || edges_narrowed || extensions_inserted;
  }
  std::string to_string() const;
};

/// Theorem 4.2: narrows every operator node to min{w(n), r(p_o)} and every
/// edge to min{w(e), r(p_d)}, where r is required precision (Definition
/// 4.1). Functionality-preserving. Primary input/output nodes keep their
/// widths (they are the design interface); their adjacent edges may shrink.
PruneStats prune_required_precision(dfg::Graph& g);

/// Lemmas 5.6 and 5.7: a single forward sweep that (a) narrows each edge to
/// the information content of the operand it delivers and (b) shrinks each
/// arithmetic operator whose width exceeds its intrinsic information
/// content, materialising the lost extension as an explicit Extension node.
/// Functionality-preserving. Optional `refinements` (from cluster
/// rebalancing, Section 5.2) tighten the per-node intrinsic bounds — this is
/// how the Huffman analysis feeds back into width reduction.
PruneStats prune_info_content(
    dfg::Graph& g, const analysis::InfoRefinements* refinements = nullptr);

/// The full normalisation used before clustering: alternates the two passes
/// to a fixpoint, at most 8 rounds (information-content shrinkage can
/// expose further required-precision slack and vice versa).
PruneStats normalize_widths(dfg::Graph& g,
                            const analysis::InfoRefinements* refinements =
                                nullptr);

}  // namespace dpmerge::transform
