#include "dpmerge/dfg/eval.h"

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dpmerge::dfg {

BitVector BitVectorOps::input(const Node& n) const {
  throw std::invalid_argument("apply_op: node " + std::to_string(n.id.value) +
                              " (" + std::string(to_string(n.kind)) +
                              ") has no operator");
}

// The frozen CSR view already carries the Kahn topo order; reuse it instead
// of re-deriving one per Evaluator.
Evaluator::Evaluator(const Graph& g) : g_(g), order_(g.freeze().topo) {
  input_order_ = g.inputs();
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
  std::array<BitVector, 2> operands;  // every operator has at most two
  for (NodeId id : order_) {
    const Node& n = g_.node(id);
    if (n.kind == OpKind::Input) continue;  // already set
    assert(n.in.size() <= operands.size());
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      const Edge& e = g_.edge(n.in[p]);
      const BitVector& src = results[static_cast<std::size_t>(e.src.value)];
      operands[p] = deliver(src, src.width(), e, n, BitVectorOps{}).delivered;
    }
    results[static_cast<std::size_t>(id.value)] = apply_op(
        n, std::span<const BitVector>(operands.data(), n.in.size()),
        BitVectorOps{});
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
