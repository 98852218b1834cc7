#include "dpmerge/dfg/eval.h"

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dpmerge::dfg {

BitVector deliver(const BitVector& src, const Edge& e, const Node& dst) {
  return src.resize(e.width, e.sign).resize(dst.width, delivery_sign(e, dst));
}

BitVector apply_op(const Node& n, std::span<const BitVector> ops) {
  switch (n.kind) {
    case OpKind::Input:
      break;
    case OpKind::Const:
      return n.value;
    case OpKind::Output:
    case OpKind::Extension:
      return ops[0];
    case OpKind::Neg:
      return ops[0].negate();
    case OpKind::Add:
      return ops[0].add(ops[1]);
    case OpKind::Sub:
      return ops[0].sub(ops[1]);
    case OpKind::Mul:
      return ops[0].mul(ops[1]);
    case OpKind::Shl:
      return ops[0].shl(n.shift);
    case OpKind::LtS:
      return BitVector::from_uint(n.width, ops[0].signed_lt(ops[1]));
    case OpKind::LtU:
      return BitVector::from_uint(n.width, ops[0].unsigned_lt(ops[1]));
    case OpKind::Eq:
      return BitVector::from_uint(n.width, ops[0] == ops[1]);
  }
  throw std::invalid_argument("apply_op: node " + std::to_string(n.id.value) +
                              " (" + std::string(to_string(n.kind)) +
                              ") has no operator");
}

// The frozen CSR view already carries the Kahn topo order; reuse it instead
// of re-deriving one per Evaluator.
Evaluator::Evaluator(const Graph& g) : g_(g), order_(g.freeze().topo) {
  input_order_ = g.inputs();
}

BitVector Evaluator::carried_on_edge(
    EdgeId eid, const std::vector<BitVector>& results) const {
  const Edge& e = g_.edge(eid);
  return results[static_cast<std::size_t>(e.src.value)].resize(e.width,
                                                               e.sign);
}

BitVector Evaluator::operand_via_edge(
    EdgeId eid, const std::vector<BitVector>& results) const {
  const Edge& e = g_.edge(eid);
  return deliver(results[static_cast<std::size_t>(e.src.value)], e,
                 g_.node(e.dst));
}

std::vector<BitVector> Evaluator::run(
    const std::vector<BitVector>& inputs) const {
  if (inputs.size() != input_order_.size()) {
    throw std::invalid_argument("stimulus count mismatch");
  }
  std::vector<BitVector> results(static_cast<std::size_t>(g_.node_count()));
  for (std::size_t i = 0; i < input_order_.size(); ++i) {
    const Node& n = g_.node(input_order_[i]);
    if (inputs[i].width() != n.width) {
      throw std::invalid_argument("stimulus width mismatch for input '" +
                                  g_.name(n) + "'");
    }
    results[static_cast<std::size_t>(n.id.value)] = inputs[i];
  }
  std::array<BitVector, 2> ops;  // every operator has at most two operands
  for (NodeId id : order_) {
    const Node& n = g_.node(id);
    if (n.kind == OpKind::Input) continue;  // already set
    assert(n.in.size() <= ops.size());
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      ops[p] = operand_via_edge(n.in[p], results);
    }
    results[static_cast<std::size_t>(id.value)] =
        apply_op(n, std::span<const BitVector>(ops.data(), n.in.size()));
  }
  return results;
}

std::vector<BitVector> Evaluator::run_outputs(
    const std::vector<BitVector>& inputs) const {
  const auto results = run(inputs);
  std::vector<BitVector> outs;
  for (NodeId id : g_.outputs()) {
    outs.push_back(results[static_cast<std::size_t>(id.value)]);
  }
  return outs;
}

std::vector<BitVector> Evaluator::random_inputs(Rng& rng) const {
  std::vector<BitVector> v;
  v.reserve(input_order_.size());
  for (NodeId id : input_order_) {
    v.push_back(rng.bits(g_.node(id).width));
  }
  return v;
}

}  // namespace dpmerge::dfg
