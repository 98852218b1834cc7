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

}  // namespace

Netlist simplify(const Netlist& n, SimplifyStats* stats) {
  Netlist out;
  if (stats) stats->gates_before = n.gate_count();

  // old net id -> new net id.
  std::vector<NetId> map(static_cast<std::size_t>(n.net_count()), NetId{});
  map[0] = out.const0();
  map[1] = out.const1();
  for (const Bus& b : n.inputs()) {
    Bus nb{b.name, {}};
    for (NetId bit : b.signal.bits) {
      auto& slot = map[static_cast<std::size_t>(bit.value)];
      if (!slot.valid()) slot = out.new_net();
      nb.signal.bits.push_back(slot);
    }
    out.add_input(nb.name, nb.signal);
  }

  // Structural hash of already-built gates and inverter pairs.
  std::unordered_map<std::uint64_t, NetId> cse;
  std::vector<NetId> inverter_of(1, NetId{});  // new net -> its INV output
  auto remember_inv = [&](NetId in, NetId inv_out) {
    if (inverter_of.size() <= static_cast<std::size_t>(in.value)) {
      inverter_of.resize(static_cast<std::size_t>(in.value) + 1, NetId{});
    }
    inverter_of[static_cast<std::size_t>(in.value)] = inv_out;
  };
  auto known_inv = [&](NetId in) -> NetId {
    if (static_cast<std::size_t>(in.value) < inverter_of.size()) {
      return inverter_of[static_cast<std::size_t>(in.value)];
    }
    return NetId{};
  };

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
    // Double-inverter collapse.
    if (g.type == CellType::INV) {
      const NetId prior = known_inv(ins[0]);
      if (prior.valid()) result = prior;
      // INV(INV(x)) -> x: if ins[0] is itself some INV output, find its
      // source cheaply via the driver in `out`.
      if (!result.valid()) {
        const Gate* d = out.driver(ins[0]);
        if (d && d->type == CellType::INV) result = d->inputs()[0];
      }
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
        if (g.type == CellType::INV) remember_inv(ins[0], result);
      }
    }
    map[static_cast<std::size_t>(g.output.value)] = result;
  }

  for (const Bus& b : n.outputs()) {
    Bus nb{b.name, {}};
    for (NetId bit : b.signal.bits) {
      const NetId m = map[static_cast<std::size_t>(bit.value)];
      nb.signal.bits.push_back(m.valid() ? m : out.const0());
    }
    out.add_output(nb.name, nb.signal);
  }

  // Dead-gate sweep: rebuild once more keeping only the cone of the
  // outputs. (Gates were only created on demand above, but CSE can leave
  // stale drivers when an output got folded away.)
  std::vector<bool> live(static_cast<std::size_t>(out.net_count()), false);
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
        for (NetId in : d->inputs()) stack.push_back(in);
      }
    }
  }
  int live_gates = 0;
  for (const Gate& g : out.gates()) {
    if (live[static_cast<std::size_t>(g.output.value)]) ++live_gates;
  }
  if (live_gates != out.gate_count()) {
    Netlist pruned;
    std::vector<NetId> pmap(static_cast<std::size_t>(out.net_count()),
                            NetId{});
    pmap[0] = pruned.const0();
    pmap[1] = pruned.const1();
    for (const Bus& b : out.inputs()) {
      Bus nb{b.name, {}};
      for (NetId bit : b.signal.bits) {
        auto& slot = pmap[static_cast<std::size_t>(bit.value)];
        if (!slot.valid()) slot = pruned.new_net();
        nb.signal.bits.push_back(slot);
      }
      pruned.add_input(nb.name, nb.signal);
    }
    for (GateId gid : kahn_order(out)) {
      const Gate& g = out.gates()[static_cast<std::size_t>(gid.value)];
      if (!live[static_cast<std::size_t>(g.output.value)]) continue;
      PinList ins;
      for (NetId in : g.inputs()) {
        auto& slot = pmap[static_cast<std::size_t>(in.value)];
        if (!slot.valid()) slot = pruned.new_net();  // shouldn't happen
        ins.push_back(slot);
      }
      const NetId o = pruned.add_gate(g.type, ins);
      pruned.set_drive(GateId{pruned.gate_count() - 1}, g.drive);
      pmap[static_cast<std::size_t>(g.output.value)] = o;
    }
    for (const Bus& b : out.outputs()) {
      Bus nb{b.name, {}};
      for (NetId bit : b.signal.bits) {
        const NetId m = pmap[static_cast<std::size_t>(bit.value)];
        nb.signal.bits.push_back(m.valid() ? m : pruned.const0());
      }
      pruned.add_output(nb.name, nb.signal);
    }
    out = std::move(pruned);
  }

  if (stats) stats->gates_after = out.gate_count();
  return out;
}

}  // namespace dpmerge::netlist
