#include "dpmerge/analysis/required_precision.h"

#include <algorithm>
#include <cstddef>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::analysis {

RequiredPrecision compute_required_precision(const dfg::Graph& g,
                                             int /*threads*/) {
  obs::Span span("analysis.required_precision");
  obs::stat_add("analysis.required_precision.runs");
  const dfg::Csr& c = g.freeze();
  RequiredPrecision rp;
  rp.at_output_port.assign(static_cast<std::size_t>(g.node_count()), 0);
  rp.at_input_port.assign(static_cast<std::size_t>(g.node_count()), 0);
  const WidthOps ops{};

  // Reverse topological: consumers before producers.
  for (auto it = c.topo.rbegin(); it != c.topo.rend(); ++it) {
    const dfg::Node& n = g.node(*it);
    // Base case: an Output's value is a design output (w(N) stands in for
    // its missing output port). Any other node joins its out-edges'
    // demands; with no fanout nothing observes it and r stays 0.
    int r_out = n.kind == dfg::OpKind::Output ? n.width : 0;
    for (std::int32_t eid : c.out(n.id)) {
      const dfg::Edge& e = g.edge(dfg::EdgeId{eid});
      r_out = std::max(r_out, dfg::demand_edge(rp.r_in(e.dst), e,
                                               g.node(e.dst), n.width, ops)
                                  .at_source);
    }
    rp.at_output_port[static_cast<std::size_t>(n.id.value)] = r_out;
    rp.at_input_port[static_cast<std::size_t>(n.id.value)] =
        dfg::demand_op(n, 0, r_out, ops);
  }
  return rp;
}

}  // namespace dpmerge::analysis
