#include "dpmerge/netlist/attribution.h"

namespace dpmerge::netlist {

PathAttribution attribute_critical_path(const Netlist& n,
                                        const TimingReport& rep) {
  PathAttribution out;
  out.total_ns = rep.longest_path_ns;
  double prev_arrival = 0.0;
  for (NetId net : rep.critical_path) {
    PathSegment seg;
    seg.net = net;
    seg.arrival_ns = rep.arrival[static_cast<std::size_t>(net.value)];
    seg.incr_ns = seg.arrival_ns - prev_arrival;
    prev_arrival = seg.arrival_ns;
    if (const GateId drv = n.driver_id(net); drv.valid()) {
      seg.gate = drv;
      seg.owner = n.provenance_owner(drv);
      out.path_gates_by_owner[seg.owner] += 1;
    }
    // Primary-input segments arrive at t = 0 and bill nothing; gate
    // segments bill their incremental delay to the driver's owner.
    out.delay_by_owner[seg.owner] += seg.incr_ns;
    out.segments.push_back(seg);
  }
  return out;
}

std::map<int, OwnerCensus> census_by_owner(const Netlist& n,
                                           const CellLibrary& lib) {
  std::map<int, OwnerCensus> out;
  const auto runs = n.owner_runs();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const int end =
        r + 1 < runs.size() ? runs[r + 1].first_gate : n.gate_count();
    OwnerCensus& c = out[runs[r].owner];
    c.gates += end - runs[r].first_gate;
    for (int gi = runs[r].first_gate; gi < end; ++gi) {
      const Gate& g = n.gates()[static_cast<std::size_t>(gi)];
      c.area += lib.variant(g.type, g.drive).area;
    }
  }
  return out;
}

}  // namespace dpmerge::netlist
