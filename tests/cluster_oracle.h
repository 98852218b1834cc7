// Reference oracles for the partition builder and the cluster flattener:
// the original push-as-you-go `partition_from_breaks` (clusters appended
// while sweeping) and the original `flatten_cluster`, which marks
// membership in a node_count-sized mask per call. The library versions must
// reproduce them exactly: same cluster numbering, member order and input
// edges; same terms in the same order.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dpmerge/cluster/flatten.h"
#include "dpmerge/cluster/partition.h"

namespace dpmerge::cluster::oracle {

inline Partition partition_from_breaks(const dfg::Graph& g,
                                       const std::vector<bool>& is_break) {
  Partition p;
  p.cluster_of.assign(static_cast<std::size_t>(g.node_count()), -1);
  const auto& order = g.freeze().topo;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const dfg::Node& n = g.node(*it);
    if (!dfg::is_arith_operator(n.kind)) continue;
    const auto idx = static_cast<std::size_t>(n.id.value);
    int target = -1;
    bool must_root = is_break[idx] || n.out.empty();
    for (dfg::EdgeId eid : n.out) {
      if (must_root) break;
      const int c =
          p.cluster_of[static_cast<std::size_t>(g.edge(eid).dst.value)];
      if (c < 0 || (target != -1 && target != c)) {
        must_root = true;
      } else {
        target = c;
      }
    }
    if (must_root) {
      p.cluster_of[idx] = static_cast<int>(p.clusters.size());
      Cluster c;
      c.root = n.id;
      c.nodes.push_back(n.id);
      p.clusters.push_back(std::move(c));
    } else {
      p.cluster_of[idx] = target;
      p.clusters[static_cast<std::size_t>(target)].nodes.push_back(n.id);
    }
  }
  for (const dfg::Edge& e : g.edges()) {
    const int cd = p.cluster_of[static_cast<std::size_t>(e.dst.value)];
    if (cd < 0) continue;
    if (p.cluster_of[static_cast<std::size_t>(e.src.value)] != cd) {
      p.clusters[static_cast<std::size_t>(cd)].input_edges.push_back(e.id);
    }
  }
  return p;
}

inline FlattenedCluster flatten_cluster(const dfg::Graph& g,
                                        const Cluster& c) {
  FlattenedCluster out;
  std::vector<bool> member(static_cast<std::size_t>(g.node_count()), false);
  for (dfg::NodeId n : c.nodes) {
    member[static_cast<std::size_t>(n.value)] = true;
  }
  struct Item {
    bool is_term;
    Term term;
    dfg::NodeId id;
    bool neg;
    int shift;
  };
  std::vector<Item> stack;
  stack.push_back(Item{false, {}, c.root, false, 0});
  Item pending[2];
  while (!stack.empty()) {
    const Item f = stack.back();
    stack.pop_back();
    if (f.is_term) {
      out.terms.push_back(f.term);
      continue;
    }
    const dfg::Node& n = g.node(f.id);
    int npending = 0;
    auto handle = [&](dfg::EdgeId eid, bool sub_neg, int shift) {
      const dfg::NodeId src = g.edge(eid).src;
      if (member[static_cast<std::size_t>(src.value)]) {
        pending[npending++] = Item{false, {}, src, sub_neg, shift};
      } else {
        pending[npending++] =
            Item{true, Term{sub_neg, {eid}, n.width, shift}, {}, false, 0};
      }
    };
    switch (n.kind) {
      case dfg::OpKind::Add:
        handle(n.in[0], f.neg, f.shift);
        handle(n.in[1], f.neg, f.shift);
        break;
      case dfg::OpKind::Sub:
        handle(n.in[0], f.neg, f.shift);
        handle(n.in[1], !f.neg, f.shift);
        break;
      case dfg::OpKind::Neg:
        handle(n.in[0], !f.neg, f.shift);
        break;
      case dfg::OpKind::Shl:
        handle(n.in[0], f.neg, f.shift + n.shift);
        break;
      case dfg::OpKind::Mul:
        out.terms.push_back(
            Term{f.neg, {n.in[0], n.in[1]}, n.width, f.shift});
        break;
      default:
        break;
    }
    for (int k = npending - 1; k >= 0; --k) stack.push_back(pending[k]);
  }
  return out;
}

}  // namespace dpmerge::cluster::oracle
