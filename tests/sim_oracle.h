// Scalar reference oracles for gate-level simulation: `netlist::eval_cell`
// evaluates one cell on one stimulus, `netlist::Simulator` evaluates every
// gate once, one stimulus at a time, and
// `synth::verify_netlist_scalar` checks a netlist against the DFG
// interpreter with it. The library's own simulation and verification go
// through `PackedSimulator` / `verify_netlist`; the tests hold those
// against these oracles.

#pragma once

#include <cstddef>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist {

/// Evaluates the boolean function of a cell on one stimulus: an independent
/// truth table that the library's `apply_cell` algebras are held against.
inline bool eval_cell(CellType t, const std::vector<bool>& in) {
  if (static_cast<int>(in.size()) != cell_input_count(t)) {
    throw std::invalid_argument("eval_cell: pin count mismatch");
  }
  switch (t) {
    case CellType::INV:
      return !in[0];
    case CellType::BUF:
      return in[0];
    case CellType::NAND2:
      return !(in[0] && in[1]);
    case CellType::NOR2:
      return !(in[0] || in[1]);
    case CellType::AND2:
      return in[0] && in[1];
    case CellType::OR2:
      return in[0] || in[1];
    case CellType::XOR2:
      return in[0] != in[1];
    case CellType::XNOR2:
      return in[0] == in[1];
    case CellType::MUX2:
      return in[2] ? in[1] : in[0];
  }
  return false;
}

/// Cycle-free functional simulation of a netlist: evaluates every gate once
/// in topological order.
class Simulator {
 public:
  explicit Simulator(const Netlist& n) : net_(n) {
    // With the index-order bit clear `run` walks the view's order: build
    // it here, so concurrent runs only read it.
    if (!n.index_topological()) (void)n.view();
  }

  /// Positional form: `inputs[i]` supplies the value of the i-th bus in
  /// `Netlist::inputs()` order (width must match).
  std::vector<BitVector> run(const std::vector<BitVector>& inputs) const {
    if (inputs.size() != net_.inputs().size()) {
      throw std::invalid_argument("stimulus count mismatch");
    }
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
    OutputCursor outs(net_);
    for (GateId gid : net_.topo_gates()) {
      const Gate& g = net_.gates()[static_cast<std::size_t>(gid.value)];
      ins.clear();
      for (NetId in : g.inputs()) {
        ins.push_back(value[static_cast<std::size_t>(in.value)]);
      }
      value[static_cast<std::size_t>(outs(gid).value)] = eval_cell(g.type, ins);
    }
    std::vector<BitVector> out;
    out.reserve(net_.outputs().size());
    for (const Bus& b : net_.outputs()) {
      BitVector v(b.signal.width());
      for (int bit = 0; bit < b.signal.width(); ++bit) {
        v.set_bit(bit,
                  value[static_cast<std::size_t>(b.signal.bit(bit).value)]);
      }
      out.push_back(std::move(v));
    }
    return out;
  }

  /// Name-keyed form: `by_name[input bus name]` supplies each input bus
  /// value. Returns each output bus value keyed by name.
  std::map<std::string, BitVector> run(
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

 private:
  const Netlist& net_;
};

}  // namespace dpmerge::netlist

namespace dpmerge::synth {

/// Scalar counterpart of `verify_netlist`: one name-keyed `Simulator::run`
/// per stimulus, the same all-zeros/all-ones corners first and the same
/// random stimulus sequence, so verdicts and mismatch messages must match.
inline bool verify_netlist_scalar(const netlist::Netlist& net,
                                  const dfg::Graph& g, int trials, Rng& rng,
                                  std::string* why = nullptr) {
  const dfg::Evaluator ev(g);
  const netlist::Simulator sim(net);
  const std::vector<dfg::NodeId> g_inputs = g.inputs();
  const std::vector<dfg::NodeId> g_outputs = g.outputs();
  auto check = [&](const std::vector<BitVector>& stim) {
    std::map<std::string, BitVector> by_name;
    for (std::size_t k = 0; k < g_inputs.size(); ++k) {
      by_name.emplace(g.name(g_inputs[k]), stim[k]);
    }
    const auto got = sim.run(by_name);
    const auto expect = ev.run_outputs(stim);
    for (std::size_t j = 0; j < g_outputs.size(); ++j) {
      const std::string& name = g.name(g_outputs[j]);
      const auto it = got.find(name);
      if (it == got.end() || it->second != expect[j]) {
        if (why) {
          std::ostringstream os;
          os << "output '" << name << "': dfg=" << expect[j].to_string()
             << " netlist="
             << (it == got.end() ? std::string("<missing>")
                                 : it->second.to_string());
          *why = os.str();
        }
        return false;
      }
    }
    return true;
  };
  std::vector<BitVector> zeros, ones;
  for (dfg::NodeId id : g_inputs) {
    zeros.emplace_back(g.node(id).width);
    ones.push_back(zeros.back().bit_not());
  }
  if (!check(zeros) || !check(ones)) return false;
  for (int t = 0; t < trials; ++t) {
    if (!check(ev.random_inputs(rng))) return false;
  }
  return true;
}

}  // namespace dpmerge::synth
