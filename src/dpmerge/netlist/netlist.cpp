#include "dpmerge/netlist/netlist.h"

#include <stdexcept>
#include <string>

#include "dpmerge/obs/obs.h"

namespace dpmerge::netlist {

Netlist::Netlist() {
  new_net();  // net 0: constant 0
  new_net();  // net 1: constant 1
}

NetId Netlist::new_net() {
  driver_of_.push_back(-1);
  ++version_;
  return NetId{net_count_++};
}

NetId Netlist::add_gate(CellType t, PinList inputs) {
  if (static_cast<int>(inputs.size()) != cell_input_count(t)) {
    throw std::invalid_argument("add_gate: wrong pin count for " +
                                std::string(to_string(t)));
  }
  const NetId out = new_net();
  const int gi = static_cast<int>(gates_.size());
  Gate g;
  g.type = t;
  // All three slots (unused ones hold NetId{}): a size()-long copy compiles
  // to a variable-length memcpy that costs more than the gate store itself.
  for (std::size_t k = 0; k < g.pins.size(); ++k) g.pins[k] = inputs[k];
  g.output = out;
  driver_of_[static_cast<std::size_t>(out.value)] = gi;
  gates_.push_back(g);
  gate_owner_.push_back(current_owner_);
  return out;
}

void Netlist::set_input(GateId g, int pin, NetId n) {
  Gate& gate = gates_[static_cast<std::size_t>(g.value)];
  if (pin < 0 || pin >= cell_input_count(gate.type)) {
    throw std::invalid_argument("set_input: no pin " + std::to_string(pin));
  }
  gate.pins[static_cast<std::size_t>(pin)] = n;
  ++version_;
  if (n.value < 0 || n.value >= net_count_ ||
      driver_of_[static_cast<std::size_t>(n.value)] >= g.value) {
    index_topological_ = false;
  }
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
    if (n == last_in) {
      r.bits.push_back(last_out);
      continue;
    }
    last_in = n;
    last_out = inv(n);
    r.bits.push_back(last_out);
  }
  return r;
}

void Netlist::add_input(const std::string& name, const Signal& s) {
  inputs_.push_back(Bus{name, s});
}

void Netlist::add_output(const std::string& name, const Signal& s) {
  outputs_.push_back(Bus{name, s});
}

namespace {

/// Builds the reader CSR and, when `with_topo`, the Kahn-LIFO order and
/// its positions; otherwise `topo` and `topo_pos` are left empty.
void build_view(std::span<const Gate> gates, std::span<const int> driver_of,
                bool with_topo, NetlistView& v) {
  const std::size_t nets = driver_of.size();
  const std::size_t ng = gates.size();

  // One pass over the pins: reader counts per net, and per gate the number
  // of driven inputs (Kahn's pending count, kept in `topo_pos` until the
  // sort is done). Gates with none seed the ready stack in gate order.
  v.reader_begin.assign(nets + 1, 0);
  std::vector<std::int32_t>& pending = v.topo_pos;
  pending.resize(with_topo ? ng : 0);
  std::vector<std::int32_t> ready;
  for (std::size_t gi = 0; gi < ng; ++gi) {
    std::int32_t cnt = 0;
    for (NetId in : gates[gi].inputs()) {
      const auto ni = static_cast<std::size_t>(in.value);
      ++v.reader_begin[ni];
      if (with_topo && driver_of[ni] >= 0) ++cnt;
    }
    if (!with_topo) continue;
    pending[gi] = cnt;
    if (cnt == 0) ready.push_back(static_cast<std::int32_t>(gi));
  }

  // Reader CSR: turn the counts into end offsets, then place entries back
  // to front so each net's readers come out in gate (and pin) order and the
  // offsets end up as begin offsets.
  for (std::size_t n = 1; n <= nets; ++n) {
    v.reader_begin[n] += v.reader_begin[n - 1];
  }
  v.readers.resize(static_cast<std::size_t>(v.reader_begin[nets]));
  for (std::size_t gi = ng; gi-- > 0;) {
    const std::span<const NetId> ins = gates[gi].inputs();
    for (std::size_t k = ins.size(); k-- > 0;) {
      const auto ni = static_cast<std::size_t>(ins[k].value);
      v.readers[static_cast<std::size_t>(--v.reader_begin[ni])] =
          static_cast<std::int32_t>(gi);
    }
  }

  if (!with_topo) return;
  // Kahn-LIFO over the driven pins. Must stay element-for-element
  // identical to the original per-call sort (tests/netlist_oracle.h):
  // simplify and Verilog numbering follow this order.
  v.topo.clear();
  v.topo.reserve(ng);
  while (!ready.empty()) {
    const std::int32_t gi = ready.back();
    ready.pop_back();
    v.topo.push_back(GateId{gi});
    const NetId out = gates[static_cast<std::size_t>(gi)].output;
    if (driver_of[static_cast<std::size_t>(out.value)] < 0) continue;
    for (std::int32_t r : v.readers_of(out)) {
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
    build_view(gates(), driver_of_.span(), !index_topological_, view_);
    view_version_ = version_;
  }
  return view_;
}

std::vector<GateId> kahn_order(const Netlist& n) {
  if (!n.index_topological()) return n.view().topo;
  // A private build: the cached view keeps no order while index order is
  // topological, and this leaves it untouched.
  NetlistView v;
  build_view(n.gates(), n.driver_of_.span(), true, v);
  return std::move(v.topo);
}

}  // namespace dpmerge::netlist
