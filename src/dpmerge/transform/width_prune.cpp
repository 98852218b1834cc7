#include "dpmerge/transform/width_prune.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::transform {

using analysis::InfoContent;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

std::string PruneStats::to_string() const {
  return "nodes narrowed: " + std::to_string(nodes_narrowed) +
         ", edges narrowed: " + std::to_string(edges_narrowed) +
         ", extensions inserted: " + std::to_string(extensions_inserted) +
         ", node bits removed: " + std::to_string(bits_removed);
}

PruneStats prune_required_precision(Graph& g) {
  obs::Span span("transform.prune_rp");
  PruneStats stats;
  const auto rp = analysis::compute_required_precision(g);
  for (const Node& n : g.nodes()) {
    // Comparators are excluded: their width is the comparison width of the
    // operands, not the precision of the (1-bit) result.
    if (!dfg::is_arith_operator(n.kind) && n.kind != OpKind::Extension) {
      continue;
    }
    const int target = std::max(1, std::min(n.width, rp.r_out(n.id)));
    if (target < n.width) {
      stats.bits_removed += n.width - target;
      ++stats.nodes_narrowed;
      g.set_node_width(n.id, target);
    }
  }
  for (const Edge& e : g.edges()) {
    const int target = std::max(1, std::min(e.width, rp.r_in(e.dst)));
    if (target < e.width) {
      ++stats.edges_narrowed;
      g.set_edge_width(e.id, target);
    }
  }
  return stats;
}

PruneStats prune_info_content(Graph& g,
                              const analysis::InfoRefinements* refinements) {
  obs::Span span("transform.prune_ic");
  PruneStats stats;
  // Forward sweep over the pre-existing nodes; Extension nodes inserted on
  // the way are given their claims at creation time, so consumers (processed
  // later in the original topological order) can look them up.
  std::vector<InfoContent> out_claim(static_cast<std::size_t>(g.node_count()));
  auto set_claim = [&out_claim](NodeId id, InfoContent ic) {
    if (out_claim.size() <= static_cast<std::size_t>(id.value)) {
      out_claim.resize(static_cast<std::size_t>(id.value) + 1);
    }
    out_claim[static_cast<std::size_t>(id.value)] = ic;
  };

  // Snapshot (copy) the frozen order: the loop below inserts Extension
  // nodes, which invalidates the CSR cache mid-iteration.
  const std::vector<NodeId> order = g.freeze().topo;
  for (NodeId id : order) {
    const Node& n = g.node(id);
    const OpKind kind = n.kind;
    const int W = n.width;
    const auto arity = static_cast<std::size_t>(dfg::operand_count(kind));
    std::array<InfoContent, 2> operands;
    for (std::size_t p = 0; p < arity; ++p) {
      const EdgeId eid = n.in[p];
      const Edge& e = g.edge(eid);
      operands[p] =
          analysis::ic_edge(out_claim[static_cast<std::size_t>(e.src.value)],
                            g.node(e.src).width, e, n)
              .delivered;
      // Lemma 5.7: narrow the edge to the operand claim it delivers. An
      // Extension destination keeps its edge: its second resize uses the
      // node's own t(N), not t(e).
      const int target = std::max(1, operands[p].width);
      if (kind != OpKind::Extension && target < e.width) {
        ++stats.edges_narrowed;
        g.set_edge_width(eid, target);
        g.set_edge_sign(eid, operands[p].sign);
      }
    }
    const InfoContent claim = analysis::ic_clip(
        analysis::ic_intrinsic(n, std::span(operands).first(arity),
                               refinements),
        W);
    if (dfg::is_arith_operator(kind) && claim.width >= 1 && claim.width < W) {
      // Lemma 5.6: shrink the node to its information content. Out-edges are
      // adjusted so every consumer sees a bit-identical operand; only the
      // signed-content/zero-padding combination needs an explicit Extension
      // node (see DESIGN.md §2).
      const int i = claim.width;
      const Sign t = claim.sign;
      std::vector<EdgeId> need_ext;
      for (EdgeId eid : g.node(id).out) {
        const Edge& e = g.edge(eid);
        if (e.width <= i || e.sign == t) continue;
        if (t == Sign::Unsigned && e.sign == Sign::Signed) {
          g.set_edge_sign(eid, Sign::Unsigned);
          continue;
        }
        need_ext.push_back(eid);
      }
      stats.bits_removed += W - i;
      ++stats.nodes_narrowed;
      g.set_node_width(id, i);
      set_claim(id, claim);
      if (!need_ext.empty()) {
        ++stats.extensions_inserted;
        const NodeId ext =
            g.insert_extension_retarget(id, W, Sign::Signed, need_ext);
        set_claim(ext, claim);
      }
    } else {
      set_claim(id, claim);
    }
  }
  return stats;
}

PruneStats normalize_widths(Graph& g,
                            const analysis::InfoRefinements* refinements) {
  // Each round either narrows something or ends the loop; every design and
  // generator in the repository reaches its fixpoint well inside this cap.
  constexpr int kMaxRounds = 8;
  obs::Span span("transform.normalize_widths");
  check::enforce_pre(g, "transform.normalize_widths.pre");
  PruneStats total;
  int rounds = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    PruneStats s = prune_required_precision(g);
    s += prune_info_content(g, refinements);
    total += s;
    ++rounds;
    if (!s.changed()) break;
  }
  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("transform.prune.rounds", rounds);
    sink->add("transform.prune.nodes_narrowed", total.nodes_narrowed);
    sink->add("transform.prune.edges_narrowed", total.edges_narrowed);
    sink->add("transform.prune.extensions_inserted",
              total.extensions_inserted);
    sink->add("transform.prune.bits_removed", total.bits_removed);
  }
  check::enforce(g, "transform.normalize_widths");
  return total;
}

}  // namespace dpmerge::transform
