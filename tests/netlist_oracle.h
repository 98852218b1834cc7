// Reference oracle for the netlist's cached structural view: the original
// per-call Kahn-LIFO topological sort over a freshly built
// vector-of-vectors reader list. `NetlistView::topo` must equal it element
// for element.

#pragma once

#include <cstddef>
#include <vector>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist::oracle {

inline std::vector<GateId> topo_gates(const Netlist& n) {
  const std::vector<Gate>& gates = n.gates();
  std::vector<int> pending(gates.size(), 0);
  // readers[net] -> gates reading it, one entry per driven input pin.
  std::vector<std::vector<int>> readers(static_cast<std::size_t>(n.net_count()));
  std::vector<GateId> order;
  order.reserve(gates.size());
  std::vector<int> ready;
  for (const Gate& g : gates) {
    int cnt = 0;
    for (NetId in : g.inputs) {
      if (n.driver(in) != nullptr) {
        ++cnt;
        readers[static_cast<std::size_t>(in.value)].push_back(g.id.value);
      }
    }
    pending[static_cast<std::size_t>(g.id.value)] = cnt;
    if (cnt == 0) ready.push_back(g.id.value);
  }
  while (!ready.empty()) {
    const int gi = ready.back();
    ready.pop_back();
    order.push_back(GateId{gi});
    const NetId out = gates[static_cast<std::size_t>(gi)].output;
    for (int r : readers[static_cast<std::size_t>(out.value)]) {
      if (--pending[static_cast<std::size_t>(r)] == 0) ready.push_back(r);
    }
  }
  return order;
}

}  // namespace dpmerge::netlist::oracle
