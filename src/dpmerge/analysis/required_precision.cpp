#include "dpmerge/analysis/required_precision.h"

#include <algorithm>
#include <cstddef>

#include "dpmerge/obs/obs.h"

namespace dpmerge::analysis {

using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

RequiredPrecision compute_required_precision(const Graph& g, int /*threads*/) {
  obs::Span span("analysis.required_precision");
  obs::stat_add("analysis.required_precision.runs");
  const dfg::Csr& c = g.freeze();
  RequiredPrecision rp;
  rp.at_output_port.assign(static_cast<std::size_t>(g.node_count()), 0);
  rp.at_input_port.assign(static_cast<std::size_t>(g.node_count()), 0);

  // Reverse topological: consumers before producers.
  for (auto it = c.topo.rbegin(); it != c.topo.rend(); ++it) {
    const NodeId id = *it;
    const Node& n = g.node(id);
    const auto idx = static_cast<std::size_t>(n.id.value);
    if (n.kind == OpKind::Output) {
      // Base case of Definition 4.1: r(input port of an output node) = w(N).
      rp.at_input_port[idx] = n.width;
      rp.at_output_port[idx] = n.width;  // no output port; convenience value
      continue;
    }
    // Output port: max over out-edges of min{w(e), r(p_d)}.
    int r_out = 0;
    for (std::int32_t eid : c.out(id)) {
      const dfg::Edge& e = g.edge(dfg::EdgeId{eid});
      r_out = std::max(r_out,
                       std::min(e.width, rp.at_input_port[static_cast<std::size_t>(
                                             e.dst.value)]));
    }
    // Nodes with no fanout (possible only in malformed/partial graphs):
    // everything they compute is unobservable; keep r = 0.
    rp.at_output_port[idx] = r_out;
    // Input ports of a non-output node: min{r(p_o), w(N)} (Definition 4.1),
    // with op-specific transfers for the extended operator set:
    //  - Shl: operand bit k lands at k + shift, so only r_out - shift low
    //    operand bits are observable;
    //  - comparators: every operand bit affects the 1-bit result, so the
    //    full comparison width is required whenever the result is observed.
    if (n.kind == OpKind::Shl) {
      rp.at_input_port[idx] =
          std::min(std::max(r_out - n.shift, 0), n.width);
    } else if (dfg::is_comparator(n.kind)) {
      rp.at_input_port[idx] = r_out >= 1 ? n.width : 0;
    } else {
      rp.at_input_port[idx] = std::min(r_out, n.width);
    }
  }
  return rp;
}

}  // namespace dpmerge::analysis
