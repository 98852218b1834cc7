#include "dpmerge/transform/const_fold.h"

#include <cassert>
#include <optional>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::transform {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

namespace {

/// Is v (width w) exactly 2^k? Returns k, or -1.
int power_of_two(const BitVector& v) {
  int k = -1;
  for (int i = 0; i < v.width(); ++i) {
    if (!v.bit(i)) continue;
    if (k >= 0) return -1;
    k = i;
  }
  return k;
}

/// Appends a copy of `n` to `ng`, reading its operands' sources through
/// `map` (old node id -> new node id).
NodeId copy_node(const Graph& g, const Node& n, const std::vector<NodeId>& map,
                 Graph& ng) {
  const NodeId nn = n.kind == OpKind::Const
                        ? ng.add_const(n.value, g.name(n))
                        : ng.add_node(n.kind, n.width, g.name(n));
  ng.set_node_ext_sign(nn, n.ext_sign);
  ng.set_node_shift(nn, n.shift);
  for (std::size_t p = 0; p < n.in.size(); ++p) {
    const Edge& e = g.edge(n.in[p]);
    ng.add_edge(map[static_cast<std::size_t>(e.src.value)], nn,
                static_cast<int>(p), e.width, e.sign);
  }
  return nn;
}

/// Keep only nodes that reach an output (inputs always stay — they are the
/// design interface).
Graph eliminate_dead(const Graph& g) {
  std::vector<bool> live(static_cast<std::size_t>(g.node_count()), false);
  const auto& order = g.freeze().topo;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node& n = g.node(*it);
    bool l = n.kind == OpKind::Output || n.kind == OpKind::Input;
    for (EdgeId eid : n.out) {
      if (live[static_cast<std::size_t>(g.edge(eid).dst.value)]) l = true;
    }
    live[static_cast<std::size_t>(n.id.value)] = l;
  }
  Graph ng;
  std::vector<NodeId> map(static_cast<std::size_t>(g.node_count()), NodeId{});
  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    if (!live[static_cast<std::size_t>(id.value)]) continue;
    map[static_cast<std::size_t>(id.value)] = copy_node(g, n, map, ng);
  }
  return ng;
}

}  // namespace

Graph fold_constants(const Graph& g, FoldStats* stats) {
  obs::Span span("transform.const_fold");
  check::enforce_pre(g, "transform.const_fold.pre");
  Graph ng;
  std::vector<NodeId> map(static_cast<std::size_t>(g.node_count()), NodeId{});
  // Known constant value of each *old* node's result.
  std::vector<std::optional<BitVector>> cv(
      static_cast<std::size_t>(g.node_count()));

  FoldStats local;

  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    auto& slot = map[static_cast<std::size_t>(id.value)];

    // Delivered operand value when the source is constant.
    auto const_operand = [&](int port) -> std::optional<BitVector> {
      const Edge& e = g.edge(n.in[static_cast<std::size_t>(port)]);
      const auto& src = cv[static_cast<std::size_t>(e.src.value)];
      if (!src) return std::nullopt;
      return dfg::deliver(*src, src->width(), e, n, dfg::BitVectorOps{})
          .delivered;
    };
    auto make_const = [&](const BitVector& v) {
      slot = ng.add_const(v);
      cv[static_cast<std::size_t>(id.value)] = v;
    };
    // A wire standing in for "old node `id`'s result == delivered operand
    // `port`": Extension nodes reproduce the two resizes where needed.
    auto make_identity = [&](int port) {
      const Edge& e = g.edge(n.in[static_cast<std::size_t>(port)]);
      NodeId cur = map[static_cast<std::size_t>(e.src.value)];
      int cur_w = g.node(e.src).width;
      const Sign second = dfg::delivery_sign(e, n);
      if (e.width != cur_w) {
        const NodeId ext = ng.add_node(OpKind::Extension, e.width);
        ng.set_node_ext_sign(ext, e.sign);
        ng.add_edge(cur, ext, 0, cur_w, e.sign);
        cur = ext;
        cur_w = e.width;
      }
      if (n.width != cur_w) {
        const NodeId ext = ng.add_node(OpKind::Extension, n.width);
        ng.set_node_ext_sign(ext, second);
        ng.add_edge(cur, ext, 0, cur_w, second);
        cur = ext;
      }
      slot = cur;
    };
    auto clone = [&] { slot = copy_node(g, n, map, ng); };

    switch (n.kind) {
      case OpKind::Const:
        clone();
        cv[static_cast<std::size_t>(id.value)] = n.value;
        continue;
      case OpKind::Input:
      case OpKind::Output:
        clone();
        continue;
      default:
        break;
    }

    // All-constant operands: evaluate the operator away.
    {
      bool all_const = !n.in.empty();
      std::vector<BitVector> ops;
      for (std::size_t p = 0; p < n.in.size() && all_const; ++p) {
        const auto v = const_operand(static_cast<int>(p));
        if (!v) {
          all_const = false;
        } else {
          ops.push_back(*v);
        }
      }
      if (all_const) {
        ++local.constants_folded;
        make_const(dfg::apply_op(n, ops, dfg::BitVectorOps{}));
        continue;
      }
    }

    // Identities and strength reduction.
    if (n.kind == OpKind::Mul) {
      for (int p = 0; p < 2; ++p) {
        const auto v = const_operand(p);
        if (!v) continue;
        const int other = 1 - p;
        if (v->is_zero()) {
          ++local.identities_removed;
          make_const(BitVector(n.width));
          break;
        }
        if (v->to_uint64() == 1 && power_of_two(*v) == 0) {
          ++local.identities_removed;
          make_identity(other);
          break;
        }
        if (!v->empty() && v->bit_not().is_zero()) {  // delivered -1
          ++local.strength_reduced;
          const Edge& e = g.edge(n.in[static_cast<std::size_t>(other)]);
          const NodeId neg = ng.add_node(OpKind::Neg, n.width);
          ng.add_edge(map[static_cast<std::size_t>(e.src.value)], neg, 0,
                      e.width, e.sign);
          slot = neg;
          break;
        }
        const int k = power_of_two(*v);
        if (k >= 1) {
          ++local.strength_reduced;
          const Edge& e = g.edge(n.in[static_cast<std::size_t>(other)]);
          const NodeId sh = ng.add_node(OpKind::Shl, n.width);
          ng.set_node_shift(sh, k);
          ng.add_edge(map[static_cast<std::size_t>(e.src.value)], sh, 0,
                      e.width, e.sign);
          slot = sh;
          break;
        }
      }
      if (slot.valid()) continue;
    }
    if (n.kind == OpKind::Add || n.kind == OpKind::Sub) {
      const Edge& e0 = g.edge(n.in[0]);
      const Edge& e1 = g.edge(n.in[1]);
      const auto v0 = const_operand(0);
      const auto v1 = const_operand(1);
      if (v1 && v1->is_zero()) {
        ++local.identities_removed;
        make_identity(0);
        continue;
      }
      if (n.kind == OpKind::Add && v0 && v0->is_zero()) {
        ++local.identities_removed;
        make_identity(1);
        continue;
      }
      if (n.kind == OpKind::Sub && e0.src == e1.src &&
          e0.width == e1.width && e0.sign == e1.sign) {
        ++local.identities_removed;
        make_const(BitVector(n.width));  // x - x == 0
        continue;
      }
    }
    if (n.kind == OpKind::Shl && n.shift == 0) {
      ++local.identities_removed;
      make_identity(0);
      continue;
    }

    clone();
  }

  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("transform.fold.constants_folded", local.constants_folded);
    sink->add("transform.fold.strength_reduced", local.strength_reduced);
    sink->add("transform.fold.identities_removed", local.identities_removed);
  }
  if (stats) *stats = local;
  Graph out = eliminate_dead(ng);
  check::enforce(out, "transform.const_fold");
  return out;
}

}  // namespace dpmerge::transform
