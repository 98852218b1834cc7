#include "dpmerge/netlist/netlist.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "dpmerge/obs/obs.h"

namespace dpmerge::netlist {

NetId Netlist::new_net() {
  const int gi = gate_count();
  if (sources_.back().gates_before == gi) {
    ++sources_.back().sources_end;
  } else {
    sources_.push_back({gi, sources_.back().sources_end + 1});
  }
  ++version_;
  return NetId{net_count() - 1};
}

NetId Netlist::add_gate(CellType t, PinList inputs) {
  if (static_cast<int>(inputs.size()) != cell_input_count(t)) {
    throw std::invalid_argument("add_gate: wrong pin count for " +
                                std::string(to_string(t)));
  }
  const int gi = gate_count();
  Gate g;
  g.type = t;
  // All three slots (unused ones hold NetId{}): a size()-long copy compiles
  // to a variable-length memcpy that costs more than the gate store itself.
  for (std::size_t k = 0; k < g.pins.size(); ++k) g.pins[k] = inputs[k];
  gates_.push_back(g);
  if (owners_.empty() || owners_.back().owner != current_owner_) {
    owners_.push_back({gi, current_owner_});
  }
  ++version_;
  return NetId{gi + sources_.back().sources_end};
}

void Netlist::set_input(GateId g, int pin, NetId n) {
  Gate& gate = gates_[static_cast<std::size_t>(g.value)];
  if (pin < 0 || pin >= cell_input_count(gate.type)) {
    throw std::invalid_argument("set_input: no pin " + std::to_string(pin));
  }
  gate.pins[static_cast<std::size_t>(pin)] = n;
  ++version_;
  // A net past the last one reads as a gate output past the last gate.
  if (n.value < 0 || driver_id(n).value >= g.value) index_topological_ = false;
}

int Netlist::provenance_owner(GateId g) const {
  if (g.value < 0 || g.value >= gate_count()) return -1;
  // The last run starting at or before g; the first starts at gate 0.
  const auto it = std::upper_bound(
      owners_.begin(), owners_.end(), g.value,
      [](int gi, const OwnerRun& r) { return gi < r.first_gate; });
  return std::prev(it)->owner;
}

void OutputCursor::seek(int g) {
  // The last run created before gate g: the first one has none before it.
  const auto it = std::upper_bound(
      runs_.begin() + 1, runs_.end(), g,
      [](int gi, const Netlist::SourceRun& r) { return gi < r.gates_before; });
  lo_ = std::prev(it)->gates_before;
  hi_ = it == runs_.end() ? std::numeric_limits<int>::max() : it->gates_before;
  shift_ = std::prev(it)->sources_end;
}

NetId Netlist::inv(NetId a) {
  if (a == const0()) return const1();
  if (a == const1()) return const0();
  return add_gate(CellType::INV, {a});
}

NetId Netlist::buf(NetId a) {
  if (is_const(a)) return a;
  return add_gate(CellType::BUF, {a});
}

NetId Netlist::and2(NetId a, NetId b) {
  if (a == const0() || b == const0()) return const0();
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return a;
  return add_gate(CellType::AND2, {a, b});
}

NetId Netlist::or2(NetId a, NetId b) {
  if (a == const1() || b == const1()) return const1();
  if (a == const0()) return b;
  if (b == const0()) return a;
  if (a == b) return a;
  return add_gate(CellType::OR2, {a, b});
}

NetId Netlist::nand2(NetId a, NetId b) {
  if (a == const0() || b == const0()) return const1();
  if (a == const1()) return inv(b);
  if (b == const1()) return inv(a);
  return add_gate(CellType::NAND2, {a, b});
}

NetId Netlist::nor2(NetId a, NetId b) {
  if (a == const1() || b == const1()) return const0();
  if (a == const0()) return inv(b);
  if (b == const0()) return inv(a);
  return add_gate(CellType::NOR2, {a, b});
}

NetId Netlist::xor2(NetId a, NetId b) {
  if (a == const0()) return b;
  if (b == const0()) return a;
  if (a == const1()) return inv(b);
  if (b == const1()) return inv(a);
  if (a == b) return const0();
  return add_gate(CellType::XOR2, {a, b});
}

NetId Netlist::xnor2(NetId a, NetId b) {
  if (a == const0()) return inv(b);
  if (b == const0()) return inv(a);
  if (a == const1()) return b;
  if (b == const1()) return a;
  if (a == b) return const1();
  return add_gate(CellType::XNOR2, {a, b});
}

NetId Netlist::mux2(NetId d0, NetId d1, NetId sel) {
  if (sel == const0()) return d0;
  if (sel == const1()) return d1;
  if (d0 == d1) return d0;
  if (d0 == const0() && d1 == const1()) return sel;
  return add_gate(CellType::MUX2, {d0, d1, sel});
}

std::pair<NetId, NetId> Netlist::full_adder(NetId a, NetId b, NetId c) {
  const NetId ab = xor2(a, b);
  const NetId sum = xor2(ab, c);
  const NetId carry = or2(and2(a, b), and2(ab, c));
  return {sum, carry};
}

std::pair<NetId, NetId> Netlist::half_adder(NetId a, NetId b) {
  return {xor2(a, b), and2(a, b)};
}

Signal Netlist::constant_signal(const BitVector& v) {
  Signal s;
  s.bits.reserve(static_cast<std::size_t>(v.width()));
  for (int i = 0; i < v.width(); ++i) {
    s.bits.push_back(v.bit(i) ? const1() : const0());
  }
  return s;
}

Signal Netlist::resize(const Signal& s, int width, Sign sign) {
  Signal r;
  r.bits.reserve(static_cast<std::size_t>(width));
  const NetId fill =
      (sign == Sign::Signed && s.width() > 0) ? s.msb() : const0();
  for (int i = 0; i < width; ++i) {
    r.bits.push_back(i < s.width() ? s.bit(i) : fill);
  }
  return r;
}

Signal Netlist::invert(const Signal& s) {
  Signal r;
  r.bits.reserve(s.bits.size());
  // Replicated fill nets (from sign extension) get one shared inverter.
  NetId last_in{-1}, last_out{-1};
  for (NetId n : s.bits) {
    if (n != last_in) {
      last_in = n;
      last_out = inv(n);
    }
    r.bits.push_back(last_out);
  }
  return r;
}

void build_reader_csr(const Netlist& n, std::vector<std::int32_t>& begin,
                      std::vector<std::int32_t>& readers) {
  const std::span<const Gate> gates = n.gates();
  const auto nets = static_cast<std::size_t>(n.net_count());
  // Reader counts per net, turned into end offsets; then entries are placed
  // back to front so each net's readers come out in gate (and pin) order
  // and the offsets end up as begin offsets.
  begin.assign(nets + 1, 0);
  for (const Gate& g : gates) {
    for (NetId in : g.inputs()) ++begin[static_cast<std::size_t>(in.value)];
  }
  for (std::size_t i = 1; i <= nets; ++i) begin[i] += begin[i - 1];
  readers.resize(static_cast<std::size_t>(begin[nets]));
  for (std::size_t gi = gates.size(); gi-- > 0;) {
    const std::span<const NetId> ins = gates[gi].inputs();
    for (std::size_t k = ins.size(); k-- > 0;) {
      const auto ni = static_cast<std::size_t>(ins[k].value);
      readers[static_cast<std::size_t>(--begin[ni])] =
          static_cast<std::int32_t>(gi);
    }
  }
}

namespace {

/// Builds the reader CSR and, when `with_topo`, the Kahn-LIFO order and
/// its positions; otherwise `topo` and `topo_pos` are left empty.
void build_view(const Netlist& n, bool with_topo, NetlistView& v) {
  build_reader_csr(n, v.reader_begin, v.readers);
  if (!with_topo) {
    v.topo.clear();
    v.topo_pos.clear();
    return;
  }
  const std::span<const Gate> gates = n.gates();
  const std::size_t ng = gates.size();

  // Kahn counts only the pins that read a gate output: flag those nets in
  // one index-order walk rather than searching the source runs per pin.
  OutputCursor outs(n);
  std::vector<unsigned char> driven(static_cast<std::size_t>(n.net_count()),
                                    0);
  for (int gi = 0; gi < n.gate_count(); ++gi) {
    driven[static_cast<std::size_t>(outs(GateId{gi}).value)] = 1;
  }

  // Per gate the number of driven inputs (Kahn's pending count, kept in
  // `topo_pos` until the sort is done). Gates with none seed the ready
  // stack in gate order.
  std::vector<std::int32_t>& pending = v.topo_pos;
  pending.resize(ng);
  std::vector<std::int32_t> ready;
  for (std::size_t gi = 0; gi < ng; ++gi) {
    std::int32_t cnt = 0;
    for (NetId in : gates[gi].inputs()) {
      if (driven[static_cast<std::size_t>(in.value)]) ++cnt;
    }
    pending[gi] = cnt;
    if (cnt == 0) ready.push_back(static_cast<std::int32_t>(gi));
  }

  // Kahn-LIFO over the driven pins. Must stay element-for-element
  // identical to the original per-call sort (tests/netlist_oracle.h):
  // simplify and Verilog numbering follow this order.
  v.topo.clear();
  v.topo.reserve(ng);
  while (!ready.empty()) {
    const std::int32_t gi = ready.back();
    ready.pop_back();
    v.topo.push_back(GateId{gi});
    for (std::int32_t r : v.readers_of(outs(GateId{gi}))) {
      if (--pending[static_cast<std::size_t>(r)] == 0) ready.push_back(r);
    }
  }

  v.topo_pos.assign(ng, -1);
  for (std::size_t p = 0; p < v.topo.size(); ++p) {
    v.topo_pos[static_cast<std::size_t>(v.topo[p].value)] =
        static_cast<std::int32_t>(p);
  }
}

}  // namespace

const NetlistView& Netlist::view() const {
  if (view_version_ != version_) {
    obs::Span span("netlist.view");
    obs::stat_add("netlist.view_builds");
    build_view(*this, !index_topological_, view_);
    view_version_ = version_;
  }
  return view_;
}

std::vector<GateId> kahn_order(const Netlist& n) {
  if (!n.index_topological()) return n.view().topo;
  // A private build: the cached view keeps no order while index order is
  // topological, and this leaves it untouched.
  NetlistView v;
  build_view(n, true, v);
  return std::move(v.topo);
}

}  // namespace dpmerge::netlist
