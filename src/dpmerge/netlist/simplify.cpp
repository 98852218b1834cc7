#include "dpmerge/netlist/simplify.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace dpmerge::netlist {

namespace {

std::uint64_t gate_key(CellType t, const PinList& ins) {
  std::uint64_t k = static_cast<std::uint64_t>(t) + 1;
  for (NetId n : ins) {
    k = k * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(n.value) + 1;
  }
  return k;
}

/// Adds `from`'s input buses to `to` through `map` (old net -> new net),
/// giving each bit not mapped yet a fresh source net.
void copy_inputs(const Netlist& from, Netlist& to, std::vector<NetId>& map) {
  for (const Bus& b : from.inputs()) {
    Signal s;
    for (NetId bit : b.signal.bits) {
      NetId& slot = map[static_cast<std::size_t>(bit.value)];
      if (!slot.valid()) slot = to.new_net();
      s.bits.push_back(slot);
    }
    to.add_input(b.name, s);
  }
}

/// Adds `from`'s output buses to `to` through `map`; a bit that was never
/// rebuilt is tied to 0.
void copy_outputs(const Netlist& from, Netlist& to,
                  const std::vector<NetId>& map) {
  for (const Bus& b : from.outputs()) {
    Signal s;
    for (NetId bit : b.signal.bits) {
      const NetId m = map[static_cast<std::size_t>(bit.value)];
      s.bits.push_back(m.valid() ? m : to.const0());
    }
    to.add_output(b.name, s);
  }
}

}  // namespace

Netlist simplify(const Netlist& n, SimplifyStats* stats) {
  Netlist out;
  if (stats) stats->gates_before = n.gate_count();

  // old net id -> new net id.
  std::vector<NetId> map(static_cast<std::size_t>(n.net_count()));
  map[0] = out.const0();
  map[1] = out.const1();
  copy_inputs(n, out, map);

  // Structural hash of already-built gates (inverters included).
  std::unordered_map<std::uint64_t, NetId> cse;

  OutputCursor n_outs(n);
  for (GateId gid : kahn_order(n)) {
    const Gate& g = n.gates()[static_cast<std::size_t>(gid.value)];
    PinList ins;
    for (NetId in : g.inputs()) {
      const NetId m = map[static_cast<std::size_t>(in.value)];
      assert(m.valid() && "input net not yet rebuilt");
      ins.push_back(m);
    }
    if (cell_commutative(g.type) && ins[0].value > ins[1].value) {
      std::swap(ins[0], ins[1]);
    }

    NetId result{};
    // Double-inverter collapse, INV(INV(x)) -> x: if ins[0] is itself some
    // INV output, find its source cheaply via the driver in `out`.
    if (g.type == CellType::INV) {
      const Gate* d = out.driver(ins[0]);
      if (d && d->type == CellType::INV) result = d->inputs()[0];
    }
    if (!result.valid()) {
      const auto key = gate_key(g.type, ins);
      const auto it = cse.find(key);
      if (it != cse.end()) {
        result = it->second;
      } else {
        // Rebuild through the folding helpers (sweeps constants and
        // trivial identities).
        switch (g.type) {
          case CellType::INV:
            result = out.inv(ins[0]);
            break;
          case CellType::BUF:
            result = out.buf(ins[0]);
            break;
          case CellType::NAND2:
            result = out.nand2(ins[0], ins[1]);
            break;
          case CellType::NOR2:
            result = out.nor2(ins[0], ins[1]);
            break;
          case CellType::AND2:
            result = out.and2(ins[0], ins[1]);
            break;
          case CellType::OR2:
            result = out.or2(ins[0], ins[1]);
            break;
          case CellType::XOR2:
            result = out.xor2(ins[0], ins[1]);
            break;
          case CellType::XNOR2:
            result = out.xnor2(ins[0], ins[1]);
            break;
          case CellType::MUX2:
            result = out.mux2(ins[0], ins[1], ins[2]);
            break;
        }
        cse.emplace(key, result);
      }
    }
    map[static_cast<std::size_t>(n_outs(gid).value)] = result;
  }

  copy_outputs(n, out, map);

  // Dead-gate sweep: rebuild once more keeping only the cone of the
  // outputs. (Gates were only created on demand above, but CSE can leave
  // stale drivers when an output got folded away.)
  std::vector<bool> live(static_cast<std::size_t>(out.net_count()), false);
  int live_gates = 0;
  {
    std::vector<NetId> stack;
    for (const Bus& b : out.outputs()) {
      for (NetId bit : b.signal.bits) stack.push_back(bit);
    }
    while (!stack.empty()) {
      const NetId cur = stack.back();
      stack.pop_back();
      if (live[static_cast<std::size_t>(cur.value)]) continue;
      live[static_cast<std::size_t>(cur.value)] = true;
      if (const Gate* d = out.driver(cur)) {
        ++live_gates;
        for (NetId in : d->inputs()) stack.push_back(in);
      }
    }
  }
  if (live_gates != out.gate_count()) {
    Netlist pruned;
    std::vector<NetId> pmap(static_cast<std::size_t>(out.net_count()));
    pmap[0] = pruned.const0();
    pmap[1] = pruned.const1();
    copy_inputs(out, pruned, pmap);
    OutputCursor out_outs(out);
    for (GateId gid : kahn_order(out)) {
      const Gate& g = out.gates()[static_cast<std::size_t>(gid.value)];
      const NetId g_out = out_outs(gid);
      if (!live[static_cast<std::size_t>(g_out.value)]) continue;
      PinList ins;
      for (NetId in : g.inputs()) {
        // Every source of `out` is a constant or a mapped input bit, and a
        // live gate's drivers are live and come earlier in Kahn order.
        const NetId m = pmap[static_cast<std::size_t>(in.value)];
        assert(m.valid() && "input net not yet rebuilt");
        ins.push_back(m);
      }
      const NetId o = pruned.add_gate(g.type, ins);
      pruned.set_drive(GateId{pruned.gate_count() - 1}, g.drive);
      pmap[static_cast<std::size_t>(g_out.value)] = o;
    }
    copy_outputs(out, pruned, pmap);
    out = std::move(pruned);
  }

  if (stats) stats->gates_after = out.gate_count();
  return out;
}

}  // namespace dpmerge::netlist
