#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "dpmerge/dfg/graph.h"

namespace dpmerge::analysis {

/// Required precision of every port in a DFG (Definition 4.1).
///
/// If the required precision of a signal is n, then no more than its n least
/// significant bits are needed to define the value at every primary output in
/// its fanout cone; the higher-order bits are truncated somewhere on every
/// downstream path and are superfluous.
///
/// Because Definition 4.1 assigns the same value to every input port of an
/// operator node (min{r(p_o), w(N)}; a shift or a comparator transfers
/// r(p_o) first, see `compute_required_precision`), the result is stored
/// per node:
///  - `at_output_port[n]` = r of the node's output port; for Output nodes
///    (which have no output port) it is set to w(N) for convenience.
///  - `at_input_port[n]`  = r of each of the node's input ports.
/// The r(p_d) used when pruning an edge (Theorem 4.2) is
/// `at_input_port[edge.dst]`.
struct RequiredPrecision {
  std::vector<int> at_output_port;
  std::vector<int> at_input_port;

  int r_out(dfg::NodeId n) const {
    return at_output_port[static_cast<std::size_t>(n.value)];
  }
  int r_in(dfg::NodeId n) const {
    return at_input_port[static_cast<std::size_t>(n.value)];
  }
};

/// Definition 4.1 as the demand algebra of `dfg::demand_op` and
/// `dfg::demand_edge`: a demand is the number r of low bits required, and
/// demands join by max. w(N) bounds a node's input ports (`fit`: r(p_i) =
/// min{r(p_o), w(N)}), never its output port, which only the edges bound: a
/// 7-bit node read through a 9-bit edge has r(p_o) = 9, so `uncarry` is the
/// identity. A Shl operand bit k lands at k + shift, and every operand bit
/// of a comparator reaches its 1-bit result. The abstract interpreter's
/// demanded widths (`check::compute_absint`) are this algebra with a
/// tighter `uncarry` and `mul`.
struct WidthOps {
  using Value = int;
  int undeliver(int d, int w_e, int, Sign) const { return std::min(d, w_e); }
  int uncarry(int d, int, int, Sign) const { return d; }
  int carry(int d, int) const { return d; }
  int mul(int d, const dfg::Node&, int) const { return d; }
  int shl(int d, int s, int) const { return std::max(d - s, 0); }
  int compare(int d, int w) const { return d >= 1 ? w : 0; }
  int fit(int d, int w) const { return std::min(d, w); }
};

/// Computes required precision for all ports by a single reverse-topological
/// sweep over the graph's frozen CSR view, O(V + E): the DFG's backward
/// semantics (`dfg::demand_op`, `dfg::demand_edge`) over `WidthOps`.
/// `threads` is accepted and ignored; output and work are
/// width-independent.
RequiredPrecision compute_required_precision(const dfg::Graph& g,
                                             int threads = 1);

}  // namespace dpmerge::analysis
