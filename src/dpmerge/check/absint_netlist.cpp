#include "dpmerge/check/absint_netlist.h"

#include <cstddef>
#include <string>
#include <vector>

#include "dpmerge/obs/obs.h"

namespace dpmerge::check {

namespace {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

/// Per-net tri-state: 0 = known 0, 1 = known 1, 2 = varies with stimulus.
enum : unsigned char { kF = 0, kT = 1, kU = 2 };

unsigned char tri_not(unsigned char a) { return a == kU ? kU : (a ^ 1); }

unsigned char tri_and(unsigned char a, unsigned char b) {
  if (a == kF || b == kF) return kF;
  if (a == kT && b == kT) return kT;
  return kU;
}

unsigned char tri_or(unsigned char a, unsigned char b) {
  if (a == kT || b == kT) return kT;
  if (a == kF && b == kF) return kF;
  return kU;
}

unsigned char tri_xor(unsigned char a, unsigned char b) {
  if (a == kU || b == kU) return kU;
  return a ^ b;
}

unsigned char eval_gate(const Gate& gt,
                        const std::vector<unsigned char>& tri) {
  auto in = [&](int i) {
    return tri[static_cast<std::size_t>(
        gt.pins[static_cast<std::size_t>(i)].value)];
  };
  switch (gt.type) {
    case CellType::INV:
      return tri_not(in(0));
    case CellType::BUF:
      return in(0);
    case CellType::AND2:
      return tri_and(in(0), in(1));
    case CellType::OR2:
      return tri_or(in(0), in(1));
    case CellType::NAND2:
      return tri_not(tri_and(in(0), in(1)));
    case CellType::NOR2:
      return tri_not(tri_or(in(0), in(1)));
    case CellType::XOR2:
      return tri_xor(in(0), in(1));
    case CellType::XNOR2:
      return tri_not(tri_xor(in(0), in(1)));
    case CellType::MUX2: {
      const unsigned char sel = in(2);
      if (sel == kF) return in(0);
      if (sel == kT) return in(1);
      // Unknown select still yields a known output if both data agree.
      if (in(0) != kU && in(0) == in(1)) return in(0);
      return kU;
    }
  }
  return kU;
}

}  // namespace

CheckReport lint_netlist_deadlogic(const Netlist& nl,
                                   NetlistAbsintStats* stats,
                                   int max_findings) {
  obs::Span span("check.lint.netlist_deadlogic");
  CheckReport rep;
  NetlistAbsintStats local;
  NetlistAbsintStats& st = stats ? *stats : local;
  st = NetlistAbsintStats{};
  st.gates = nl.gate_count();

  // Forward: tri-state values per net. Constants are pinned, every other
  // undriven net (primary inputs) varies; gates evaluate in Kahn order,
  // which also fixes the order of the findings.
  std::vector<unsigned char> tri(static_cast<std::size_t>(nl.net_count()),
                                 kU);
  tri[static_cast<std::size_t>(nl.const0().value)] = kF;
  tri[static_cast<std::size_t>(nl.const1().value)] = kT;
  const std::vector<GateId> order = netlist::kahn_order(nl);
  for (GateId gid : order) {
    const Gate& gt = nl.gates()[static_cast<std::size_t>(gid.value)];
    tri[static_cast<std::size_t>(gt.output.value)] = eval_gate(gt, tri);
  }

  // Backward: observability from the output buses. A constant net blocks
  // influence (its value cannot change, whatever its cone does), and a MUX
  // with a decided select only exposes the selected data leg.
  std::vector<char> obs_net(static_cast<std::size_t>(nl.net_count()), 0);
  for (const netlist::Bus& bus : nl.outputs()) {
    for (NetId n : bus.signal.bits) {
      if (n.valid()) obs_net[static_cast<std::size_t>(n.value)] = 1;
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& gt = nl.gates()[static_cast<std::size_t>(it->value)];
    const auto out_idx = static_cast<std::size_t>(gt.output.value);
    if (!obs_net[out_idx]) continue;
    if (tri[out_idx] != kU) continue;  // constant output: influence stops
    if (gt.type == CellType::MUX2) {
      const unsigned char sel =
          tri[static_cast<std::size_t>(gt.pins[2].value)];
      if (sel != kU) {
        obs_net[static_cast<std::size_t>(
            gt.pins[sel == kT ? 1 : 0].value)] = 1;
        continue;
      }
    }
    for (NetId in : gt.inputs()) {
      obs_net[static_cast<std::size_t>(in.value)] = 1;
    }
  }

  auto locus = [&](GateId gid, const Gate& gt) {
    Locus l{"gate", gid.value, -1, std::string(to_string(gt.type))};
    const int owner = nl.provenance_owner(gid);
    if (owner >= 0) l.aux = owner;  // owning DFG node, when provenance is on
    return l;
  };
  for (GateId gid : order) {
    const Gate& gt = nl.gates()[static_cast<std::size_t>(gid.value)];
    const auto out_idx = static_cast<std::size_t>(gt.output.value);
    if (tri[out_idx] != kU) {
      ++st.constant_cells;
      if (max_findings < 0 ||
          static_cast<int>(rep.diagnostics().size()) < max_findings) {
        rep.add(Severity::Warning, "net.absint.constant-cell",
                std::string(to_string(gt.type)) + " output is constant " +
                    (tri[out_idx] == kT ? "1" : "0") + " on every stimulus",
                locus(gid, gt));
      }
    } else if (!obs_net[out_idx]) {
      ++st.unobservable_cells;
      if (max_findings < 0 ||
          static_cast<int>(rep.diagnostics().size()) < max_findings) {
        rep.add(Severity::Warning, "net.absint.unobservable-cell",
                std::string(to_string(gt.type)) +
                    " output cannot influence any output bus bit",
                locus(gid, gt));
      }
    }
  }
  obs::stat_add("check.netlist_deadlogic.constant", st.constant_cells);
  obs::stat_add("check.netlist_deadlogic.unobservable",
                st.unobservable_cells);
  return rep;
}

}  // namespace dpmerge::check
