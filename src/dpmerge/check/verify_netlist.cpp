#include <algorithm>
#include <cstddef>
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

/// Combinational loops, from the cached view: Kahn leaves every gate on or
/// downstream of a cycle out of `topo` (`topo_pos == -1`). An iterative
/// Tarjan SCC over just those gates (successor = any gate reading my output)
/// appends one finding per non-trivial SCC; self-loops (a gate reading its
/// own output) count as non-trivial. The view is only read once the census
/// found every net id in range and the driver index current.
void check_comb_loops(const Netlist& n, CheckReport& rep) {
  const netlist::NetlistView& v = n.view();
  const int ng = n.gate_count();
  if (v.topo.size() == static_cast<std::size_t>(ng)) return;
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
    if (v.topo_pos[ri] != -1 || index[ri] != kUnvisited) continue;
    dfs.push_back({root, 0});
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      const auto gi = static_cast<std::size_t>(f.gate);
      if (f.child == 0) {
        index[gi] = lowlink[gi] = next_index++;
        stack.push_back(f.gate);
        on_stack[gi] = true;
      }
      const auto readers = v.readers_of(n.gates()[gi].output);
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
  // A type outside `CellType` has no pin count: its pins are never read.
  auto type_ok = [](const Gate& g) {
    return static_cast<int>(g.type) < netlist::kCellTypeCount;
  };

  // Byte flags, not vector<bool>: the census sweep is the whole cost of the
  // Errors-policy boundary check and bit RMWs show up at this scale.
  std::vector<int> drivers(static_cast<std::size_t>(nets), 0);
  std::vector<unsigned char> is_pi(static_cast<std::size_t>(nets), 0);
  std::vector<unsigned char> is_read(static_cast<std::size_t>(nets), 0);
  if (nets >= 2) is_pi[0] = is_pi[1] = 1;  // designated constants

  for (const Bus& b : n.inputs()) {
    for (NetId bit : b.signal.bits) {
      if (!net_ok(bit)) {
        rep.add(Severity::Error, "net.range",
                "input bus '" + b.name + "' references net " +
                    std::to_string(bit.value) + " out of range",
                Locus{"net", bit.value, -1, b.name});
        continue;
      }
      is_pi[static_cast<std::size_t>(bit.value)] = 1;
    }
  }

  // First sweep: structural gate checks + driver census. The Locus is built
  // lazily — constructing one per gate shows up on the enforce hot path.
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
    if (!type_ok(g)) {
      rep.add(Severity::Error, "net.gate.type",
              "gate " + std::to_string(gi) + ": cell type " +
                  std::to_string(static_cast<int>(g.type)) +
                  " outside the library's " +
                  std::to_string(netlist::kCellTypeCount) + " types",
              at());
    }
    for (NetId in : type_ok(g) ? g.inputs() : std::span<const NetId>{}) {
      if (!net_ok(in)) {
        rep.add(Severity::Error, "net.range",
                "gate " + std::to_string(gi) + " reads net " +
                    std::to_string(in.value) + " out of range",
                at());
        continue;
      }
      is_read[static_cast<std::size_t>(in.value)] = 1;
    }
    if (!net_ok(g.output)) {
      rep.add(Severity::Error, "net.range",
              "gate " + std::to_string(gi) + " drives net " +
                  std::to_string(g.output.value) + " out of range",
              at());
      continue;
    }
    ++drivers[static_cast<std::size_t>(g.output.value)];
    if (n.driver(g.output) != &g) {
      rep.add(Severity::Error, "net.driver-index",
              "gate " + std::to_string(gi) + " drives net " +
                  std::to_string(g.output.value) +
                  " but the netlist's driver index does not name it",
              at());
    }
    if (n.is_const(g.output)) {
      rep.add(Severity::Error, "net.const-driven",
              "gate " + std::to_string(gi) + " drives constant net " +
                  std::to_string(g.output.value),
              at());
    } else if (is_pi[static_cast<std::size_t>(g.output.value)]) {
      rep.add(Severity::Error, "net.input-driven",
              "gate " + std::to_string(gi) + " drives primary-input net " +
                  std::to_string(g.output.value),
              at());
    }
  }

  // Per-net sweep (needs the full driver census): multi-driven nets and
  // floating-input *detection*. The first sweep already recorded which nets
  // gates read, so the clean path never re-walks the gates; the precise
  // (gate, pin) loci are recovered with a second gate sweep only when a
  // floating net actually exists.
  auto undriven = [&](NetId id) {
    return drivers[static_cast<std::size_t>(id.value)] == 0 &&
           !is_pi[static_cast<std::size_t>(id.value)];
  };
  bool any_floating = false;
  for (int net = 0; net < nets; ++net) {
    const auto ni = static_cast<std::size_t>(net);
    if (drivers[ni] > 1) {
      rep.add(Severity::Error, "net.multi-driven",
              "net " + std::to_string(net) + " has " +
                  std::to_string(drivers[ni]) + " drivers",
              Locus{"net", net, -1, {}});
    }
    if (is_read[ni] && drivers[ni] == 0 && !is_pi[ni]) any_floating = true;
  }
  if (any_floating) {
    for (int gi = 0; gi < ng; ++gi) {
      const Gate& g = n.gates()[static_cast<std::size_t>(gi)];
      if (!type_ok(g)) continue;
      for (std::size_t pin = 0; pin < g.inputs().size(); ++pin) {
        const NetId in = g.inputs()[pin];
        if (net_ok(in) && undriven(in)) {
          rep.add(Severity::Error, "net.floating-input",
                  "gate " + std::to_string(gi) + " pin " +
                      std::to_string(pin) + " reads floating net " +
                      std::to_string(in.value),
                  Locus{"gate", gi, static_cast<int>(pin), {}});
        }
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
      if (undriven(id)) {
        rep.add(Severity::Error, "net.undriven-output",
                "output bus '" + b.name + "' bit " + std::to_string(bit) +
                    " (net " + std::to_string(id.value) + ") is undriven",
                Locus{"net", id.value, static_cast<int>(bit), b.name});
      }
    }
  }

  // Index order topological means every gate reads only earlier gates: no
  // loop, and no view to build.
  if (!n.index_topological() && !rep.has_rule("net.range") &&
      !rep.has_rule("net.driver-index") && !rep.has_rule("net.gate.type")) {
    check_comb_loops(n, rep);
  }

  obs::stat_add("check.verify.netlist.runs");
  return rep;
}

}  // namespace dpmerge::check
