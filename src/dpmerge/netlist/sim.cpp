#include "dpmerge/netlist/sim.h"

#include <stdexcept>

#include "dpmerge/obs/obs.h"

namespace dpmerge::netlist {

Simulator::Simulator(const Netlist& n) : net_(n) {
  (void)n.view();  // built here, so concurrent runs only read it
}

std::vector<BitVector> Simulator::run(
    const std::vector<BitVector>& inputs) const {
  if (inputs.size() != net_.inputs().size()) {
    throw std::invalid_argument("stimulus count mismatch");
  }
  obs::stat_add("sim.scalar_runs");
  std::vector<bool> value(static_cast<std::size_t>(net_.net_count()), false);
  value[1] = true;  // const1

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Bus& b = net_.inputs()[i];
    if (inputs[i].width() != b.signal.width()) {
      throw std::invalid_argument("stimulus width mismatch for '" + b.name +
                                  "'");
    }
    for (int bit = 0; bit < b.signal.width(); ++bit) {
      value[static_cast<std::size_t>(b.signal.bit(bit).value)] =
          inputs[i].bit(bit);
    }
  }

  std::vector<bool> ins;
  for (GateId gid : net_.topo_gates()) {
    const Gate& g = net_.gates()[static_cast<std::size_t>(gid.value)];
    ins.clear();
    for (NetId in : g.inputs) {
      ins.push_back(value[static_cast<std::size_t>(in.value)]);
    }
    value[static_cast<std::size_t>(g.output.value)] = eval_cell(g.type, ins);
  }

  std::vector<BitVector> out;
  out.reserve(net_.outputs().size());
  for (const Bus& b : net_.outputs()) {
    BitVector v(b.signal.width());
    for (int bit = 0; bit < b.signal.width(); ++bit) {
      v.set_bit(bit, value[static_cast<std::size_t>(b.signal.bit(bit).value)]);
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::map<std::string, BitVector> Simulator::run(
    const std::map<std::string, BitVector>& by_name) const {
  std::vector<BitVector> inputs;
  inputs.reserve(net_.inputs().size());
  for (const Bus& b : net_.inputs()) {
    const auto it = by_name.find(b.name);
    if (it == by_name.end()) {
      throw std::invalid_argument("missing stimulus for input '" + b.name +
                                  "'");
    }
    inputs.push_back(it->second);
  }
  const auto values = run(inputs);
  std::map<std::string, BitVector> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[net_.outputs()[i].name] = values[i];
  }
  return out;
}

}  // namespace dpmerge::netlist
