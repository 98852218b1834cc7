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
  std::vector<Tri> tri(static_cast<std::size_t>(nl.net_count()), Tri::U);
  tri[static_cast<std::size_t>(nl.const0().value)] = Tri::F;
  tri[static_cast<std::size_t>(nl.const1().value)] = Tri::T;
  const std::vector<GateId> order = netlist::kahn_order(nl);
  netlist::eval_gates(nl, order, tri, tristate::Ops{});
  netlist::OutputCursor outs(nl);

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
    const auto out_idx = static_cast<std::size_t>(outs(*it).value);
    if (!obs_net[out_idx]) continue;
    if (tri[out_idx] != Tri::U) continue;  // constant output: influence stops
    if (gt.type == CellType::MUX2) {
      const Tri sel = tri[static_cast<std::size_t>(gt.pins[2].value)];
      if (sel != Tri::U) {
        obs_net[static_cast<std::size_t>(
            gt.pins[sel == Tri::T ? 1 : 0].value)] = 1;
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
    const auto out_idx = static_cast<std::size_t>(outs(gid).value);
    if (tri[out_idx] != Tri::U) {
      ++st.constant_cells;
      if (max_findings < 0 ||
          static_cast<int>(rep.diagnostics().size()) < max_findings) {
        rep.add(Severity::Warning, "net.absint.constant-cell",
                std::string(to_string(gt.type)) + " output is constant " +
                    (tri[out_idx] == Tri::T ? "1" : "0") + " on every stimulus",
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
