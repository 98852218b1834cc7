// Reference oracles for the netlist's topological orders: the original
// per-call Kahn-LIFO topological sort over a freshly built
// vector-of-vectors reader list (`NetlistView::topo` and `kahn_order` must
// equal it element for element), and a linear check that gate-index order
// is topological (what `Netlist::index_topological()` claims).

#pragma once

#include <cstddef>
#include <vector>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist::oracle {

inline std::vector<GateId> topo_gates(const Netlist& n) {
  const std::span<const Gate> gates = n.gates();
  std::vector<int> pending(gates.size(), 0);
  // readers[net] -> gates reading it, one entry per driven input pin.
  std::vector<std::vector<int>> readers(static_cast<std::size_t>(n.net_count()));
  std::vector<GateId> order;
  order.reserve(gates.size());
  std::vector<int> ready;
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    int cnt = 0;
    for (NetId in : gates[gi].inputs()) {
      if (n.driver(in) != nullptr) {
        ++cnt;
        readers[static_cast<std::size_t>(in.value)].push_back(
            static_cast<int>(gi));
      }
    }
    pending[gi] = cnt;
    if (cnt == 0) ready.push_back(static_cast<int>(gi));
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

/// True when every gate reads only undriven nets and nets driven by
/// earlier gates.
inline bool index_order_is_topological(const Netlist& n) {
  for (int gi = 0; gi < n.gate_count(); ++gi) {
    for (NetId in : n.gates()[static_cast<std::size_t>(gi)].inputs()) {
      if (n.driver_id(in).value >= gi) return false;
    }
  }
  return true;
}

}  // namespace dpmerge::netlist::oracle
