#pragma once

#include <span>
#include <vector>

#include "dpmerge/dfg/graph.h"
#include "dpmerge/support/rng.h"

namespace dpmerge::dfg {

/// The extension type of the second resize, from edge `e` into its
/// destination `dst` (Section 2.2): t(e), except that an Extension
/// destination resizes with its own t(N) (Definition 5.5). Every pass that
/// follows an operand across an edge (concrete, symbolic, abstract,
/// information content or gates) takes the sign from here.
inline Sign delivery_sign(const Edge& e, const Node& dst) {
  return dst.kind == OpKind::Extension ? dst.ext_sign : e.sign;
}

/// The operand edge `e` delivers into its destination `dst`, given the
/// result `src` of its source (Section 2.2):
///
///   carried(e) = resize(src, w(e), t(e))
///   operand    = resize(carried(e), w(dst), delivery_sign(e, dst))
BitVector deliver(const BitVector& src, const Edge& e, const Node& dst);

/// The concrete semantics of every node kind: the result of `n` over its
/// delivered operands, `ops[p]` for port p (each w(n) bits wide, see
/// `deliver`), reduced mod 2^w(n). A Const yields its value; Input has no
/// operator and throws. `Evaluator` and the constant folder both compute
/// results here, so there is one definition of what an operator does.
BitVector apply_op(const Node& n, std::span<const BitVector> ops);

/// Bit-accurate reference interpreter for DFGs, implementing the width and
/// signedness semantics of Section 2.2 exactly:
///
///   carried(e) = resize(result(src(e)), w(e), t(e))
///   operand    = resize(carried(e), w(N), t(e))        for arith operators
///   result(N)  = op(operands) mod 2^w(N)
///
/// Extension nodes apply Definition 5.5 instead (their own <w(N), t(N)>
/// governs the final resize). This interpreter defines "functionality" for
/// every safety theorem in the paper; all transformation and synthesis
/// equivalence tests compare against it.
class Evaluator {
 public:
  explicit Evaluator(const Graph& g);

  /// `inputs[i]` is the stimulus for the i-th Input node in `g.inputs()`
  /// order and must match that node's width.
  /// Returns the value at every node's output port, indexed by NodeId.
  std::vector<BitVector> run(const std::vector<BitVector>& inputs) const;

  /// Values at Output nodes only, in `g.outputs()` order.
  std::vector<BitVector> run_outputs(const std::vector<BitVector>& inputs) const;

  /// The operand value delivered into (dst, dst_port) of `e` given the
  /// already-computed node results. Exposed for the analyses' property tests.
  BitVector operand_via_edge(EdgeId e,
                             const std::vector<BitVector>& results) const;

  /// The value carried on edge `e` itself (after the first resize).
  BitVector carried_on_edge(EdgeId e,
                            const std::vector<BitVector>& results) const;

  /// Uniformly random stimulus vector for the graph's inputs.
  std::vector<BitVector> random_inputs(Rng& rng) const;

  const Graph& graph() const { return g_; }

 private:
  const Graph& g_;
  std::vector<NodeId> order_;
  std::vector<NodeId> input_order_;
};

}  // namespace dpmerge::dfg
