// Reference oracles for the netlist: the original per-call Kahn-LIFO
// topological sort over a freshly built vector-of-vectors reader list
// (`kahn_order` and `topo_gates()` off index order must equal it element
// for element),
// a linear check that gate-index order is topological (what
// `Netlist::index_topological()` claims), and `Recorder`, which replays
// construction calls onto a netlist while keeping the gate -> net,
// net -> gate and gate -> owner maps the netlist derives instead of storing.

#pragma once

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

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
    const NetId out = n.output(GateId{gi});
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

/// Forwards construction calls to a netlist and records, per call, what its
/// derived lookups must answer. Net ids are counted here, one per
/// `new_net`/`add_gate` in call order, not read back from the netlist.
struct Recorder {
  explicit Recorder(Netlist& net) : n(net) {}

  Netlist& n;
  std::vector<NetId> output;            ///< gate -> the net it drives
  std::vector<GateId> driver{{}, {}};   ///< net -> driver (sources: invalid)
  std::vector<int> owner;               ///< gate -> provenance owner
  int current_owner = -1;
  bool index_topological = true;

  NetId new_net() {
    const NetId id = n.new_net();
    EXPECT_EQ(id.value, static_cast<int>(driver.size()));
    driver.push_back(GateId{});
    return id;
  }
  NetId add_gate(CellType t, PinList ins) {
    const NetId out = n.add_gate(t, ins);
    EXPECT_EQ(out.value, static_cast<int>(driver.size()));
    driver.push_back(GateId{static_cast<int>(output.size())});
    output.push_back(out);
    owner.push_back(current_owner);
    return out;
  }
  void set_provenance_owner(int o) {
    n.set_provenance_owner(o);
    current_owner = o;
  }
  void set_input(GateId g, int pin, NetId in) {
    n.set_input(g, pin, in);
    if (driver[static_cast<std::size_t>(in.value)].value >= g.value) {
      index_topological = false;
    }
  }

  /// Every lookup against the recorded maps: `output` gate by gate and
  /// through a cursor in index and in reverse order, `driver_id`/`driver`
  /// net by net and `provenance_owner`; and the owner runs' shape (none
  /// empty, the owner changing at every boundary).
  void expect_matches() const {
    ASSERT_EQ(n.gate_count(), static_cast<int>(output.size()));
    ASSERT_EQ(n.net_count(), static_cast<int>(driver.size()));
    EXPECT_EQ(n.index_topological(), index_topological);
    OutputCursor forward(n);
    OutputCursor backward(n);
    for (int gi = 0; gi < n.gate_count(); ++gi) {
      const auto i = static_cast<std::size_t>(gi);
      const int rgi = n.gate_count() - 1 - gi;
      EXPECT_EQ(n.output(GateId{gi}), output[i]) << "gate " << gi;
      EXPECT_EQ(forward(GateId{gi}), output[i]) << "gate " << gi;
      EXPECT_EQ(backward(GateId{rgi}), output[static_cast<std::size_t>(rgi)])
          << "gate " << rgi;
      EXPECT_EQ(n.provenance_owner(GateId{gi}), owner[i]) << "gate " << gi;
    }
    EXPECT_EQ(n.provenance_owner(GateId{n.gate_count()}), -1);
    for (int ni = 0; ni < n.net_count(); ++ni) {
      const GateId want = driver[static_cast<std::size_t>(ni)];
      EXPECT_EQ(n.driver_id(NetId{ni}), want) << "net " << ni;
      EXPECT_EQ(n.driver(NetId{ni}),
                want.valid() ? &n.gates()[static_cast<std::size_t>(want.value)]
                             : nullptr)
          << "net " << ni;
    }
    bool tagged = false;
    for (int o : owner) tagged |= o >= 0;
    EXPECT_EQ(n.has_provenance(), tagged);
    const auto runs = n.owner_runs();
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const int end = r + 1 < runs.size() ? runs[r + 1].first_gate
                                          : n.gate_count();
      EXPECT_LT(runs[r].first_gate, end) << "empty owner run " << r;
      if (r > 0) {
        EXPECT_NE(runs[r].owner, runs[r - 1].owner) << "run " << r;
      }
    }
  }
};

}  // namespace dpmerge::netlist::oracle
