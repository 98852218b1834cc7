// Reference oracles for the DFG:
//   - the original per-call Kahn-LIFO topological sort over the per-node
//     `in`/`out` edge lists. `Csr::topo` must equal it element for element
//     (cluster numbering and netlist emission follow that order);
//   - random-simulation equivalence of two graphs under `dfg::Evaluator`,
//     the check every graph transformation's tests run;
//   - a rewrite that puts Extension nodes with t(N) != t(e) before every
//     output, for the tests that drive Definition 5.5's delivery sign.

#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/support/rng.h"

namespace dpmerge::dfg::oracle {

/// Nodes in Kahn-LIFO order, sources first. A cycle leaves its nodes (and
/// everything downstream of them) out, so the result is then partial.
inline std::vector<NodeId> topo_order(const Graph& g) {
  std::vector<int> pending(static_cast<std::size_t>(g.node_count()), 0);
  std::vector<NodeId> ready;
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.node_count()));
  for (const Node& n : g.nodes()) {
    int cnt = 0;
    for (EdgeId e : n.in) {
      if (e.valid()) ++cnt;
    }
    pending[static_cast<std::size_t>(n.id.value)] = cnt;
    if (cnt == 0) ready.push_back(n.id);
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (EdgeId eid : g.node(id).out) {
      const NodeId d = g.edge(eid).dst;
      if (--pending[static_cast<std::size_t>(d.value)] == 0) {
        ready.push_back(d);
      }
    }
  }
  return order;
}

inline std::vector<BitVector> pattern_inputs(const Graph& g, bool ones) {
  std::vector<BitVector> v;
  for (NodeId id : g.inputs()) {
    BitVector b(g.node(id).width);
    if (ones) b = b.bit_not();
    v.push_back(b);
  }
  return v;
}

/// Reorders `vals` (in a-input order) into b-input order by matching names.
inline std::vector<BitVector> permute_by_name(
    const Graph& a, const Graph& b, const std::vector<BitVector>& vals) {
  const auto ai = a.inputs();
  const auto bi = b.inputs();
  std::vector<BitVector> out;
  out.reserve(bi.size());
  for (NodeId bid : bi) {
    const std::string& name = b.name(bid);
    bool found = false;
    for (std::size_t k = 0; k < ai.size(); ++k) {
      if (a.name(ai[k]) == name) {
        out.push_back(vals[k]);
        found = true;
        break;
      }
    }
    if (!found) throw std::invalid_argument("input '" + name + "' missing");
  }
  return out;
}

/// True iff the two graphs compute identical primary-output values on
/// `trials` random stimuli (and on the all-zero / all-one patterns). The
/// graphs must have the same inputs and outputs, by name, with equal widths;
/// stimuli are paired by input name so transformed graphs with re-ordered
/// node ids still compare correctly.
inline bool equivalent_by_simulation(const Graph& a, const Graph& b,
                                     int trials, Rng& rng,
                                     std::string* first_mismatch = nullptr) {
  Evaluator ea(a);
  Evaluator eb(b);
  const auto a_outs = a.outputs();
  const auto b_outs = b.outputs();
  if (a_outs.size() != b_outs.size()) {
    if (first_mismatch) *first_mismatch = "output count differs";
    return false;
  }

  auto check = [&](const std::vector<BitVector>& stim_a) {
    const auto ra = ea.run_outputs(stim_a);
    const auto rb = eb.run_outputs(permute_by_name(a, b, stim_a));
    for (std::size_t i = 0; i < ra.size(); ++i) {
      // Match b's output by name, to tolerate node-id reordering.
      const std::string& name = a.name(a_outs[i]);
      std::size_t j = 0;
      for (; j < b_outs.size(); ++j) {
        if (b.name(b_outs[j]) == name) break;
      }
      if (j == b_outs.size() || ra[i] != rb[j]) {
        if (first_mismatch) {
          std::ostringstream os;
          os << "output '" << name << "' differs: " << ra[i].to_string()
             << " vs "
             << (j == b_outs.size() ? std::string("<missing>")
                                    : rb[j].to_string());
          *first_mismatch = os.str();
        }
        return false;
      }
    }
    return true;
  };

  if (!check(pattern_inputs(a, false))) return false;
  if (!check(pattern_inputs(a, true))) return false;
  for (int t = 0; t < trials; ++t) {
    if (!check(ea.random_inputs(rng))) return false;
  }
  return true;
}

/// `g` with an Extension node in front of every Output, two bits wider
/// than its source and with t(N) opposite to the t(e) of the edge into it:
/// the case where Definition 5.5's delivery differs from Section 2.2's.
/// No frontend or transformation builds such an edge; a `.dfg` file can.
inline Graph with_sign_flipping_extensions(Graph g) {
  for (const NodeId out : g.outputs()) {
    const EdgeId e = g.node(out).in[0];
    const NodeId src = g.edge(e).src;
    const Sign te = g.edge(e).sign;
    const NodeId ext = g.insert_extension_retarget(
        src, g.node(src).width + 2,
        te == Sign::Signed ? Sign::Unsigned : Sign::Signed, {e});
    g.set_edge_sign(g.node(ext).in[0], te);
  }
  return g;
}

}  // namespace dpmerge::dfg::oracle
