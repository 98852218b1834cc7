#include "dpmerge/synth/verify.h"

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpmerge/netlist/packed_sim.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::synth {

using dfg::Graph;
using netlist::Netlist;
using netlist::PackedSimulator;

namespace {

/// Name-resolved bus bindings between a DFG and a netlist, computed once
/// per verification run instead of once per trial.
struct Bindings {
  std::vector<dfg::NodeId> g_inputs;
  std::vector<dfg::NodeId> g_outputs;
  /// For net input bus i: index into `g_inputs` supplying its stimulus.
  std::vector<std::size_t> in_of_bus;
  /// For DFG output j: net output bus index, or -1 if the netlist has no
  /// bus of that name (reported as a mismatch).
  std::vector<int> bus_of_out;
};

Bindings resolve(const Netlist& net, const Graph& g) {
  Bindings b;
  b.g_inputs = g.inputs();
  b.g_outputs = g.outputs();

  b.in_of_bus.resize(net.inputs().size());
  for (std::size_t i = 0; i < net.inputs().size(); ++i) {
    bool found = false;
    for (std::size_t k = 0; k < b.g_inputs.size(); ++k) {
      if (g.name(b.g_inputs[k]) == net.inputs()[i].name) {
        b.in_of_bus[i] = k;
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("missing stimulus for input '" +
                                  net.inputs()[i].name + "'");
    }
  }

  b.bus_of_out.assign(b.g_outputs.size(), -1);
  for (std::size_t j = 0; j < b.g_outputs.size(); ++j) {
    const std::string& name = g.name(b.g_outputs[j]);
    for (std::size_t i = 0; i < net.outputs().size(); ++i) {
      if (net.outputs()[i].name == name) {
        b.bus_of_out[j] = static_cast<int>(i);
        break;
      }
    }
  }
  return b;
}

void fill_mismatch(const Graph& g, const Bindings& bind, std::size_t out_idx,
                   const BitVector& expect, const BitVector* got,
                   std::string* why) {
  if (!why) return;
  std::ostringstream os;
  os << "output '" << g.name(bind.g_outputs[out_idx])
     << "': dfg=" << expect.to_string() << " netlist="
     << (got ? got->to_string() : std::string("<missing>"));
  *why = os.str();
}

/// The corner patterns every run starts with: all-zeros and all-ones.
std::vector<std::vector<BitVector>> corner_stimuli(const Graph& g,
                                                   const Bindings& bind) {
  std::vector<BitVector> zeros, ones;
  for (dfg::NodeId id : bind.g_inputs) {
    BitVector z(g.node(id).width);
    zeros.push_back(z);
    ones.push_back(z.bit_not());
  }
  return {std::move(zeros), std::move(ones)};
}

}  // namespace

bool verify_netlist(const Netlist& net, const Graph& g, int trials, Rng& rng,
                    std::string* why) {
  obs::Span span("verify.netlist");
  dfg::Evaluator ev(g);
  PackedSimulator sim(net);
  const Bindings bind = resolve(net, g);

  // Checks one batch of <= 64 stimulus sets (each in g.inputs() order):
  // one packed netlist sweep, one scalar DFG evaluation per lane.
  auto check_batch =
      [&](const std::vector<std::vector<BitVector>>& stims) -> bool {
    obs::stat_add("verify.batches");
    obs::stat_add("verify.lanes", static_cast<std::int64_t>(stims.size()));
    std::vector<std::vector<BitVector>> bus_stims(stims.size());
    for (std::size_t L = 0; L < stims.size(); ++L) {
      bus_stims[L].reserve(bind.in_of_bus.size());
      for (std::size_t pos : bind.in_of_bus) {
        bus_stims[L].push_back(stims[L][pos]);
      }
    }
    const auto got = sim.run_batch(bus_stims);
    for (std::size_t L = 0; L < stims.size(); ++L) {
      const auto expect = ev.run_outputs(stims[L]);
      for (std::size_t j = 0; j < bind.g_outputs.size(); ++j) {
        const int bus = bind.bus_of_out[j];
        const BitVector* v =
            bus >= 0 ? &got[L][static_cast<std::size_t>(bus)] : nullptr;
        if (!v || *v != expect[j]) {
          fill_mismatch(g, bind, j, expect[j], v, why);
          return false;
        }
      }
    }
    return true;
  };

  auto stims = corner_stimuli(g, bind);
  int done = 0;
  for (;;) {
    while (done < trials &&
           stims.size() < static_cast<std::size_t>(PackedSimulator::kLanes)) {
      stims.push_back(ev.random_inputs(rng));
      ++done;
    }
    if (stims.empty()) break;
    if (!check_batch(stims)) return false;
    stims.clear();
    if (done == trials) break;
  }
  return true;
}

}  // namespace dpmerge::synth
