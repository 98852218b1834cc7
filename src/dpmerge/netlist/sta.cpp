#include "dpmerge/netlist/sta.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "dpmerge/obs/obs.h"

namespace dpmerge::netlist {

namespace {

/// Per-net load, accumulated in gate order: the FP addition order every
/// load in the timer uses, so full and incremental loads are bit-identical.
void accumulate_loads(const Netlist& n, const CellLibrary& lib,
                      std::vector<double>& load) {
  load.assign(static_cast<std::size_t>(n.net_count()), 0.0);
  for (const Gate& g : n.gates()) {
    const double cap = lib.variant(g.type, g.drive).input_cap;
    for (NetId in : g.inputs()) {
      load[static_cast<std::size_t>(in.value)] += cap;
    }
  }
}

}  // namespace

std::vector<double> Sta::net_loads(const Netlist& n) const {
  std::vector<double> load;
  accumulate_loads(n, lib_, load);
  return load;
}

TimingReport Sta::analyze(const Netlist& n) const {
  obs::Span span("sta.analyze");
  obs::stat_add("sta.full_runs");
  obs::stat_add("sta.full_gates", n.gate_count());
  return IncrementalSta(n, lib_).report();
}

double Sta::area(const Netlist& n) const {
  double a = 0.0;
  for (const Gate& g : n.gates()) {
    a += lib_.variant(g.type, g.drive).area;
  }
  return a;
}

IncrementalSta::IncrementalSta(const Netlist& n, const CellLibrary& lib)
    : net_(n), lib_(lib) {
  rebuild();
}

void IncrementalSta::rebuild() {
  const std::size_t nets = static_cast<std::size_t>(net_.net_count());
  accumulate_loads(net_, lib_, load_);
  arrival_.assign(nets, 0.0);
  for (GateId gid : net_.topo_gates()) {
    recompute_gate(gid.value);
  }
  refresh_longest();
}

void IncrementalSta::recompute_gate(int gate_idx) {
  const Gate& g = net_.gates()[static_cast<std::size_t>(gate_idx)];
  const CellVariant& v = lib_.variant(g.type, g.drive);
  const double d =
      v.intrinsic_ns +
      v.drive_res_ns * load_[static_cast<std::size_t>(g.output.value)];
  // Every cell has a pin and arrivals are >= 0, so the latest input is valid.
  arrival_[static_cast<std::size_t>(g.output.value)] =
      arrival_[static_cast<std::size_t>(latest_input(g).value)] + d;
}

NetId IncrementalSta::latest_input(const Gate& g) const {
  double worst = 0.0;
  NetId worst_in{};
  for (NetId in : g.inputs()) {
    const double a = arrival_[static_cast<std::size_t>(in.value)];
    if (a >= worst) {  // tie-break: last input wins
      worst = a;
      worst_in = in;
    }
  }
  return worst_in;
}

void IncrementalSta::refresh_longest() {
  longest_ = 0.0;
  longest_net_ = NetId{};
  for (const Bus& b : net_.outputs()) {
    for (NetId bit : b.signal.bits) {
      const double a = arrival_[static_cast<std::size_t>(bit.value)];
      if (a > longest_) {
        longest_ = a;
        longest_net_ = bit;
      }
    }
  }
}

void IncrementalSta::update_drive_change(GateId g) {
  const Gate& gate = net_.gates()[static_cast<std::size_t>(g.value)];
  const NetlistView& view = net_.view();

  // Min-heap over topological positions so cone gates are re-evaluated in
  // dependency order (each gate at most once per update). While index
  // order is topological the position is the gate index itself.
  const bool by_index = net_.index_topological();
  // Allocated on the first update and grown when a buffer move added gates
  // (a full `Sta::analyze` never reads it); all zero between calls.
  if (queued_.size() < net_.gates().size()) {
    queued_.resize(net_.gates().size(), 0);
  }
  std::priority_queue<int, std::vector<int>, std::greater<int>> pq;
  auto enqueue = [&](int gate_idx) {
    if (!queued_[static_cast<std::size_t>(gate_idx)]) {
      queued_[static_cast<std::size_t>(gate_idx)] = 1;
      pq.push(by_index ? gate_idx
                       : view.topo_pos[static_cast<std::size_t>(gate_idx)]);
    }
  };

  // The resized gate's input pins changed capacitance: recompute those
  // nets' loads from their reader lists (same accumulation order as a full
  // pass, so no delta drift) and reseed the worklist with their drivers,
  // whose delays depend on those loads.
  for (NetId in : gate.inputs()) {
    const std::size_t ni = static_cast<std::size_t>(in.value);
    double l = 0.0;
    // One reader entry per reading *pin*, in full-pass accumulation order.
    for (std::int32_t reader : view.readers_of(in)) {
      const Gate& r = net_.gates()[static_cast<std::size_t>(reader)];
      l += lib_.variant(r.type, r.drive).input_cap;
    }
    load_[ni] = l;
    if (const GateId drv = net_.driver_id(in); drv.valid()) {
      enqueue(drv.value);
    }
  }
  // The gate itself: its drive resistance changed.
  enqueue(g.value);

  int cone_gates = 0;
  while (!pq.empty()) {
    const int pos = pq.top();
    pq.pop();
    const int gi =
        by_index ? pos : view.topo[static_cast<std::size_t>(pos)].value;
    queued_[static_cast<std::size_t>(gi)] = 0;
    ++cone_gates;
    const NetId out = net_.gates()[static_cast<std::size_t>(gi)].output;
    const double before = arrival_[static_cast<std::size_t>(out.value)];
    recompute_gate(gi);
    if (arrival_[static_cast<std::size_t>(out.value)] != before) {
      for (std::int32_t reader : view.readers_of(out)) {
        enqueue(reader);
      }
    }
  }

  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("sta.incremental_updates");
    sink->add("sta.incremental_cone_gates", cone_gates);
    sink->set_max("sta.incremental_max_cone", cone_gates);
  }

  refresh_longest();
}

std::vector<NetId> IncrementalSta::critical_path() const {
  std::vector<NetId> path;
  for (NetId cur = longest_net_; cur.valid();) {
    path.push_back(cur);
    const Gate* drv = net_.driver(cur);
    if (!drv) break;
    cur = latest_input(*drv);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

TimingReport IncrementalSta::report() const& {
  TimingReport rep;
  rep.longest_path_ns = longest_;
  rep.arrival = arrival_;
  rep.critical_path = critical_path();
  return rep;
}

TimingReport IncrementalSta::report() && {
  TimingReport rep;
  rep.longest_path_ns = longest_;
  rep.critical_path = critical_path();
  rep.arrival = std::move(arrival_);
  return rep;
}

}  // namespace dpmerge::netlist
