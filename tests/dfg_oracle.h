// Reference oracle for the DFG's frozen CSR view: the original per-call
// Kahn-LIFO topological sort over the per-node `in`/`out` edge lists.
// `Csr::topo` must equal it element for element (cluster numbering and
// netlist emission follow that order).

#pragma once

#include <cstddef>
#include <vector>

#include "dpmerge/dfg/graph.h"

namespace dpmerge::dfg::oracle {

/// Nodes in Kahn-LIFO order, sources first. A cycle leaves its nodes (and
/// everything downstream of them) out, so the result is then partial.
inline std::vector<NodeId> topo_order(const Graph& g) {
  std::vector<int> pending(static_cast<std::size_t>(g.node_count()), 0);
  std::vector<NodeId> ready;
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.node_count()));
  for (const Node& n : g.nodes()) {
    int cnt = 0;
    for (EdgeId e : n.in) {
      if (e.valid()) ++cnt;
    }
    pending[static_cast<std::size_t>(n.id.value)] = cnt;
    if (cnt == 0) ready.push_back(n.id);
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (EdgeId eid : g.node(id).out) {
      const NodeId d = g.edge(eid).dst;
      if (--pending[static_cast<std::size_t>(d.value)] == 0) {
        ready.push_back(d);
      }
    }
  }
  return order;
}

}  // namespace dpmerge::dfg::oracle
