#pragma once

#include <span>
#include <utility>
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

/// The value of an operand on edge `e` into `dst` before and after the
/// second resize (Section 2.2), in any value algebra.
template <class V>
struct Delivery {
  V carried;    ///< resize(src, w(e), t(e))
  V delivered;  ///< resize(carried, w(dst), its delivery sign)
};

// The DFG's one semantics, stated once over a value algebra `ops`:
// `deliver` follows an operand across an edge and `apply_op` computes a
// node's result. The concrete evaluator, the constant folder, the BDD
// checker, the abstract interpreter, the information-content analysis and
// synthesis each instantiate them with their own algebra (DESIGN.md §5).
// An algebra names its value type `Value` and supplies
//
//   resize(v, from, to, sign)  v, `from` bits wide, truncated or
//                              sign-extended to `to` bits
//   input(n), constant(n)      the value of an Input / Const node
//   neg(a, w)   add(a, b, w)   sub(a, b, w)   mul(a, b, w)   shl(a, s, w)
//   lt(a, b, sign, w)          eq(a, b, w)
//
// where every operator works at the node width w, mod 2^w, and a
// comparator yields 0 or 1 zero-extended to w bits. `deliver` needs only
// `resize`.

/// What edge `e` carries and delivers into its destination `dst`, given the
/// value `src` (`src_width` bits) at its source's output port.
template <class Ops>
Delivery<typename Ops::Value> deliver(const typename Ops::Value& src,
                                      int src_width, const Edge& e,
                                      const Node& dst, const Ops& ops) {
  typename Ops::Value carried = ops.resize(src, src_width, e.width, e.sign);
  typename Ops::Value delivered =
      ops.resize(carried, e.width, dst.width, delivery_sign(e, dst));
  return {std::move(carried), std::move(delivered)};
}

/// The result of node `n` over its delivered operands, `operands[p]` for
/// port p (each w(n) wide): an Output or Extension passes its operand on,
/// an operator computes mod 2^w(n). A kind outside the enum reads as an
/// Input (the IR verifier rejects it before any pass runs).
template <class Ops>
typename Ops::Value apply_op(
    const Node& n, std::span<const typename Ops::Value> operands,
    const Ops& ops) {
  switch (n.kind) {
    case OpKind::Input:
      break;
    case OpKind::Const:
      return ops.constant(n);
    case OpKind::Output:
    case OpKind::Extension:
      return operands[0];
    case OpKind::Neg:
      return ops.neg(operands[0], n.width);
    case OpKind::Add:
      return ops.add(operands[0], operands[1], n.width);
    case OpKind::Sub:
      return ops.sub(operands[0], operands[1], n.width);
    case OpKind::Mul:
      return ops.mul(operands[0], operands[1], n.width);
    case OpKind::Shl:
      return ops.shl(operands[0], n.shift, n.width);
    case OpKind::LtS:
      return ops.lt(operands[0], operands[1], Sign::Signed, n.width);
    case OpKind::LtU:
      return ops.lt(operands[0], operands[1], Sign::Unsigned, n.width);
    case OpKind::Eq:
      return ops.eq(operands[0], operands[1], n.width);
  }
  return ops.input(n);
}

/// The concrete algebra: two's-complement bit vectors, for `Evaluator` and
/// the constant folder. An Input has no value without a stimulus, so
/// `input` throws `std::invalid_argument`.
struct BitVectorOps {
  using Value = BitVector;
  BitVector resize(const BitVector& v, int /*from*/, int to, Sign s) const {
    return v.resize(to, s);
  }
  [[noreturn]] BitVector input(const Node& n) const;
  BitVector constant(const Node& n) const { return n.value; }
  BitVector neg(const BitVector& a, int /*w*/) const { return a.negate(); }
  BitVector add(const BitVector& a, const BitVector& b, int /*w*/) const {
    return a.add(b);
  }
  BitVector sub(const BitVector& a, const BitVector& b, int /*w*/) const {
    return a.sub(b);
  }
  BitVector mul(const BitVector& a, const BitVector& b, int /*w*/) const {
    return a.mul(b);
  }
  BitVector shl(const BitVector& a, int s, int /*w*/) const {
    return a.shl(s);
  }
  BitVector lt(const BitVector& a, const BitVector& b, Sign s, int w) const {
    return BitVector::from_uint(
        w, s == Sign::Signed ? a.signed_lt(b) : a.unsigned_lt(b));
  }
  BitVector eq(const BitVector& a, const BitVector& b, int w) const {
    return BitVector::from_uint(w, a == b);
  }
};

/// Bit-accurate reference interpreter for DFGs: `deliver` and `apply_op`
/// over `BitVectorOps`, node by node in topological order. It defines
/// "functionality" for every safety theorem in the paper; all
/// transformation and synthesis equivalence tests compare against it.
class Evaluator {
 public:
  explicit Evaluator(const Graph& g);

  /// `inputs[i]` is the stimulus for the i-th Input node in `g.inputs()`
  /// order and must match that node's width.
  /// Returns the value at every node's output port, indexed by NodeId.
  std::vector<BitVector> run(const std::vector<BitVector>& inputs) const;

  /// Values at Output nodes only, in `g.outputs()` order.
  std::vector<BitVector> run_outputs(const std::vector<BitVector>& inputs) const;

  /// Uniformly random stimulus vector for the graph's inputs.
  std::vector<BitVector> random_inputs(Rng& rng) const;

  const Graph& graph() const { return g_; }

 private:
  const Graph& g_;
  std::vector<NodeId> order_;
  std::vector<NodeId> input_order_;
};

}  // namespace dpmerge::dfg
