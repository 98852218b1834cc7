#include "dpmerge/netlist/sta.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

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
  const std::size_t nets = static_cast<std::size_t>(net_.net_count());
  accumulate_loads(net_, lib_, load_);
  arrival_.assign(nets, 0.0);
  OutputCursor outs(net_);
  if (net_.index_topological()) {
    for (int gi = 0; gi < net_.gate_count(); ++gi) {
      recompute_gate(gi, outs(GateId{gi}));
    }
  } else {
    // The one sort for this netlist: cone updates reuse it.
    order_ = kahn_order(net_);
    for (GateId gid : order_) recompute_gate(gid.value, outs(gid));
  }
  refresh_longest();
}

void IncrementalSta::recompute_gate(int gate_idx, NetId out) {
  const Gate& g = net_.gates()[static_cast<std::size_t>(gate_idx)];
  const CellVariant& v = lib_.variant(g.type, g.drive);
  const double d =
      v.intrinsic_ns +
      v.drive_res_ns * load_[static_cast<std::size_t>(out.value)];
  // Every cell has a pin and arrivals are >= 0, so the latest input is valid.
  arrival_[static_cast<std::size_t>(out.value)] =
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

void IncrementalSta::ensure_structure() {
  if (!reader_begin_.empty()) return;
  build_reader_csr(net_, reader_begin_, readers_);
  if (!order_.empty()) index_positions(0);
  pending_.assign((static_cast<std::size_t>(net_.gate_count()) + 63) / 64, 0);
}

void IncrementalSta::index_positions(std::size_t from) {
  pos_.resize(static_cast<std::size_t>(net_.gate_count()), -1);
  for (std::size_t p = from; p < order_.size(); ++p) {
    pos_[static_cast<std::size_t>(order_[p].value)] =
        static_cast<std::int32_t>(p);
  }
}

std::span<const std::int32_t> IncrementalSta::readers(NetId n) {
  ensure_structure();
  return readers_of(n);
}

std::int32_t IncrementalSta::order_position(GateId g) {
  ensure_structure();
  return position(g.value);
}

void IncrementalSta::reload(NetId n) {
  const std::size_t ni = static_cast<std::size_t>(n.value);
  double l = 0.0;
  for (std::int32_t reader : readers_of(n)) {
    const Gate& r = net_.gates()[static_cast<std::size_t>(reader)];
    l += lib_.variant(r.type, r.drive).input_cap;
  }
  old_loads_.push_back({n.value, load_[ni]});
  load_[ni] = l;
}

void IncrementalSta::enqueue(int gate_idx) {
  const std::int32_t p = position(gate_idx);
  if (p < 0) return;  // on a cycle: a full pass never times it either
  const std::size_t w = static_cast<std::size_t>(p) / 64;
  pending_[w] |= std::uint64_t{1} << (p % 64);
  lo_word_ = std::min(lo_word_, w);
  hi_word_ = std::max(hi_word_, w);
}

void IncrementalSta::propagate() {
  // Readers sit later in the order than their drivers, so every enqueue
  // during the sweep lands above the bit being popped: one upward pass
  // pops positions in increasing order.
  int cone_gates = 0;
  OutputCursor outs(net_);
  for (std::size_t w = lo_word_; w <= hi_word_; ++w) {
    while (pending_[w] != 0) {
      const int bit = std::countr_zero(pending_[w]);
      pending_[w] &= pending_[w] - 1;
      const std::size_t p = w * 64 + static_cast<std::size_t>(bit);
      const int gi = order_.empty() ? static_cast<int>(p) : order_[p].value;
      ++cone_gates;
      const NetId out = outs(GateId{gi});
      const double before = arrival_[static_cast<std::size_t>(out.value)];
      recompute_gate(gi, out);
      if (arrival_[static_cast<std::size_t>(out.value)] != before) {
        old_arrivals_.push_back({out.value, before});
        for (std::int32_t reader : readers_of(out)) enqueue(reader);
      }
    }
  }
  lo_word_ = std::numeric_limits<std::size_t>::max();
  hi_word_ = 0;

  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("sta.incremental_updates");
    sink->add("sta.incremental_cone_gates", cone_gates);
    sink->set_max("sta.incremental_max_cone", cone_gates);
  }
  refresh_longest();
}

void IncrementalSta::update_drive_change(GateId g) {
  ensure_structure();
  old_loads_.clear();
  old_arrivals_.clear();
  old_longest_ = longest_;
  old_longest_net_ = longest_net_;

  // The resized gate's input pins changed capacitance: recompute those
  // nets' loads from their reader lists (same accumulation order as a full
  // pass, so no delta drift) and seed the worklist with their drivers,
  // whose delays depend on those loads.
  const Gate& gate = net_.gates()[static_cast<std::size_t>(g.value)];
  for (NetId in : gate.inputs()) {
    reload(in);
    if (const GateId drv = net_.driver_id(in); drv.valid()) {
      enqueue(drv.value);
    }
  }
  // The gate itself: its drive resistance changed.
  enqueue(g.value);
  propagate();
  undoable_ = true;
}

void IncrementalSta::undo_last_update() {
  if (!undoable_) {
    throw std::logic_error("undo_last_update: no drive change to undo");
  }
  // Newest first, so a net logged twice ends at its oldest value.
  for (auto it = old_arrivals_.rbegin(); it != old_arrivals_.rend(); ++it) {
    arrival_[static_cast<std::size_t>(it->net)] = it->value;
  }
  for (auto it = old_loads_.rbegin(); it != old_loads_.rend(); ++it) {
    load_[static_cast<std::size_t>(it->net)] = it->value;
  }
  longest_ = old_longest_;
  longest_net_ = old_longest_net_;
  undoable_ = false;
}

void IncrementalSta::update_buffer_insertion(GateId buffer) {
  // Built before the edit, the reader lists need patching; built now, they
  // already describe the edited netlist. The order, taken before the edit,
  // always lacks the buffer.
  const bool patch = !reader_begin_.empty();
  ensure_structure();
  const std::span<const Gate> gates = net_.gates();
  const NetId w = gates[static_cast<std::size_t>(buffer.value)].pins[0];
  const NetId b = net_.output(buffer);
  assert(buffer.value + 1 == net_.gate_count() &&
         static_cast<std::size_t>(b.value) == arrival_.size());
  const GateId drv = net_.driver_id(w);
  // The new net starts at w's old arrival, the value its readers saw: they
  // are re-timed exactly when the buffer's output arrives at another time.
  arrival_.push_back(arrival_[static_cast<std::size_t>(w.value)]);
  load_.push_back(0.0);

  // Right after w's driver (first for a source) is before every reader of
  // w, the buffer's readers included.
  const std::size_t at =
      drv.valid() ? static_cast<std::size_t>(position(drv.value)) + 1 : 0;
  std::size_t moved = at;  // positions from here on change
  if (order_.empty()) {
    for (int gi = 0; gi < buffer.value; ++gi) order_.push_back(GateId{gi});
    moved = 0;
  }
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(at), buffer);
  index_positions(moved);
  pending_.resize((static_cast<std::size_t>(net_.gate_count()) + 63) / 64, 0);

  if (patch) {
    // w's old readers, in gate order, split by the net each pin now reads.
    // w's new list, ended by the buffer (the last gate), replaces the old
    // one in the CSR; the new net is the last, so its list goes last.
    const auto wi = static_cast<std::size_t>(w.value);
    const auto first = readers_.begin() + reader_begin_[wi];
    const auto last = readers_.begin() + reader_begin_[wi + 1];
    std::vector<std::int32_t> w_list, b_list;
    for (auto it = first; it != last; ++it) {
      if (it != first && *(it - 1) == *it) {
        continue;  // a gate reading w on several pins: visited once
      }
      for (NetId in : gates[static_cast<std::size_t>(*it)].inputs()) {
        if (in == w) w_list.push_back(*it);
        if (in == b) b_list.push_back(*it);
      }
    }
    w_list.push_back(buffer.value);
    const auto shift = static_cast<std::int32_t>(w_list.size()) -
                       static_cast<std::int32_t>(last - first);
    readers_.insert(readers_.erase(first, last), w_list.begin(), w_list.end());
    readers_.insert(readers_.end(), b_list.begin(), b_list.end());
    for (std::size_t n = wi + 1; n < reader_begin_.size(); ++n) {
      reader_begin_[n] += shift;
    }
    reader_begin_.push_back(static_cast<std::int32_t>(readers_.size()));
  }

  old_loads_.clear();
  old_arrivals_.clear();
  reload(w);
  reload(b);
  if (drv.valid()) enqueue(drv.value);
  enqueue(buffer.value);
  propagate();
  undoable_ = false;
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

TimingReport IncrementalSta::report() && {
  TimingReport rep;
  rep.longest_path_ns = longest_;
  rep.critical_path = critical_path();
  rep.arrival = std::move(arrival_);
  return rep;
}

}  // namespace dpmerge::netlist
