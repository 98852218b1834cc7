#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::check {

namespace {

using netlist::Bus;
using netlist::Gate;
using netlist::NetId;
using netlist::Netlist;

/// Combinational loops: `kahn_order` leaves every gate on or downstream of
/// a cycle out. An iterative Tarjan SCC over just those gates (successor =
/// any gate reading my output, from a reader CSR built only then) appends
/// one finding per non-trivial SCC; self-loops (a gate reading its own
/// output) count as non-trivial. Runs only once the census found every pin
/// in range and every cell type known.
void check_comb_loops(const Netlist& n, CheckReport& rep) {
  const std::vector<netlist::GateId> order = netlist::kahn_order(n);
  const int ng = n.gate_count();
  if (order.size() == static_cast<std::size_t>(ng)) return;
  std::vector<char> sorted(static_cast<std::size_t>(ng), 0);
  for (netlist::GateId g : order) {
    sorted[static_cast<std::size_t>(g.value)] = 1;
  }
  std::vector<std::int32_t> reader_begin, reader;
  netlist::build_reader_csr(n, reader_begin, reader);
  constexpr int kUnvisited = -1;
  std::vector<int> index(static_cast<std::size_t>(ng), kUnvisited);
  std::vector<int> lowlink(static_cast<std::size_t>(ng), 0);
  std::vector<bool> on_stack(static_cast<std::size_t>(ng), false);
  std::vector<int> stack;
  int next_index = 0;

  struct Frame {
    int gate;
    std::size_t child;
  };
  std::vector<Frame> dfs;
  std::vector<int> scc;

  for (int root = 0; root < ng; ++root) {
    const auto ri = static_cast<std::size_t>(root);
    if (sorted[ri] || index[ri] != kUnvisited) continue;
    dfs.push_back({root, 0});
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const auto gi = static_cast<std::size_t>(f.gate);
      if (f.child == 0) {
        index[gi] = lowlink[gi] = next_index++;
        stack.push_back(f.gate);
        on_stack[gi] = true;
      }
      const auto out =
          static_cast<std::size_t>(n.output(netlist::GateId{f.gate}).value);
      const std::span<const std::int32_t> readers(
          reader.data() + reader_begin[out],
          reader.data() + reader_begin[out + 1]);
      if (f.child < readers.size()) {
        const int s = readers[f.child++];
        const auto si = static_cast<std::size_t>(s);
        if (index[si] == kUnvisited) {
          dfs.push_back({s, 0});
        } else if (on_stack[si]) {
          lowlink[gi] = std::min(lowlink[gi], index[si]);
        }
        continue;
      }
      // Finished this gate: close the SCC if it is a root.
      if (lowlink[gi] == index[gi]) {
        scc.clear();
        for (;;) {
          const int m = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(m)] = false;
          scc.push_back(m);
          if (m == f.gate) break;
        }
        const bool self_loop =
            scc.size() == 1 && std::find(readers.begin(), readers.end(),
                                         f.gate) != readers.end();
        if (scc.size() > 1 || self_loop) {
          std::sort(scc.begin(), scc.end());
          std::string members;
          for (std::size_t i = 0; i < scc.size() && i < 8; ++i) {
            if (i) members += " ";
            members += std::to_string(scc[i]);
          }
          if (scc.size() > 8) members += " ...";
          rep.add(Severity::Error, "net.comb-loop",
                  "combinational loop through " + std::to_string(scc.size()) +
                      " gate(s) {" + members + "}",
                  Locus{"gate", scc.front(), -1, {}});
        }
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        Frame& parent = dfs.back();
        const auto pi = static_cast<std::size_t>(parent.gate);
        lowlink[pi] = std::min(lowlink[pi], lowlink[gi]);
      }
    }
  }
}

}  // namespace

CheckReport verify(const Netlist& n) {
  obs::Span span("check.verify.netlist");
  CheckReport rep;
  const int nets = n.net_count();
  const int ng = n.gate_count();
  auto net_ok = [&](NetId id) { return id.value >= 0 && id.value < nets; };

  // Nets with a value: the constants, the input-bus bits and every gate
  // output. Byte flags, not vector<bool>: bit RMWs show up at this scale.
  std::vector<unsigned char> has_value(static_cast<std::size_t>(nets), 0);
  has_value[0] = has_value[1] = 1;  // designated constants
  netlist::OutputCursor outs(n);
  for (int gi = 0; gi < ng; ++gi) {
    has_value[static_cast<std::size_t>(outs(netlist::GateId{gi}).value)] = 1;
  }

  for (const Bus& b : n.inputs()) {
    for (std::size_t bit = 0; bit < b.signal.bits.size(); ++bit) {
      const NetId id = b.signal.bits[bit];
      if (!net_ok(id)) {
        rep.add(Severity::Error, "net.range",
                "input bus '" + b.name + "' references net " +
                    std::to_string(id.value) + " out of range",
                Locus{"net", id.value, -1, b.name});
        continue;
      }
      has_value[static_cast<std::size_t>(id.value)] = 1;
      if (const netlist::GateId drv = n.driver_id(id); drv.valid()) {
        rep.add(Severity::Error, "net.input-driven",
                "input bus '" + b.name + "' bit " + std::to_string(bit) +
                    " (net " + std::to_string(id.value) +
                    ") is the output of gate " + std::to_string(drv.value),
                Locus{"net", id.value, static_cast<int>(bit), b.name});
      }
    }
  }

  // One gate sweep. The Locus is built lazily — constructing one per gate
  // shows up on the enforce hot path.
  for (int gi = 0; gi < ng; ++gi) {
    const Gate& g = n.gates()[static_cast<std::size_t>(gi)];
    auto at = [gi] { return Locus{"gate", gi, -1, {}}; };
    if (g.drive >= netlist::kDriveLevels) {
      rep.add(Severity::Error, "net.gate.drive",
              "gate " + std::to_string(gi) + ": drive index " +
                  std::to_string(g.drive) + " outside the library's " +
                  std::to_string(netlist::kDriveLevels) + " variants",
              at());
    }
    // A type outside `CellType` has no pin count: its pins are not read.
    if (static_cast<int>(g.type) >= netlist::kCellTypeCount) {
      rep.add(Severity::Error, "net.gate.type",
              "gate " + std::to_string(gi) + ": cell type " +
                  std::to_string(static_cast<int>(g.type)) +
                  " outside the library's " +
                  std::to_string(netlist::kCellTypeCount) + " types",
              at());
      continue;
    }
    for (std::size_t pin = 0; pin < g.inputs().size(); ++pin) {
      const NetId in = g.inputs()[pin];
      if (!net_ok(in)) {
        rep.add(Severity::Error, "net.range",
                "gate " + std::to_string(gi) + " reads net " +
                    std::to_string(in.value) + " out of range",
                at());
      } else if (!has_value[static_cast<std::size_t>(in.value)]) {
        rep.add(Severity::Error, "net.floating-input",
                "gate " + std::to_string(gi) + " pin " + std::to_string(pin) +
                    " reads floating net " + std::to_string(in.value),
                Locus{"gate", gi, static_cast<int>(pin), {}});
      }
    }
  }

  for (const Bus& b : n.outputs()) {
    for (std::size_t bit = 0; bit < b.signal.bits.size(); ++bit) {
      const NetId id = b.signal.bits[bit];
      if (!net_ok(id)) {
        rep.add(Severity::Error, "net.range",
                "output bus '" + b.name + "' references net " +
                    std::to_string(id.value) + " out of range",
                Locus{"net", id.value, static_cast<int>(bit), b.name});
        continue;
      }
      if (!has_value[static_cast<std::size_t>(id.value)]) {
        rep.add(Severity::Error, "net.undriven-output",
                "output bus '" + b.name + "' bit " + std::to_string(bit) +
                    " (net " + std::to_string(id.value) + ") is undriven",
                Locus{"net", id.value, static_cast<int>(bit), b.name});
      }
    }
  }

  // Index order topological means every gate reads only earlier gates: no
  // loop, and no sort.
  if (!n.index_topological() && !rep.has_rule("net.range") &&
      !rep.has_rule("net.gate.type")) {
    check_comb_loops(n, rep);
  }

  obs::stat_add("check.verify.netlist.runs");
  return rep;
}

}  // namespace dpmerge::check
