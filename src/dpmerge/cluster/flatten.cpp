#include "dpmerge/cluster/flatten.h"

#include <cstdlib>

namespace dpmerge::cluster {

using analysis::Addend;
using analysis::InfoAnalysis;
using analysis::InfoContent;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

FlattenedCluster flatten_cluster(const Graph& g, const Partition& p, int ci) {
  const Cluster& c = p.clusters[static_cast<std::size_t>(ci)];
  FlattenedCluster out;
  // One term per entry edge (one per two for a product), unless member
  // fanout reconverges.
  out.terms.reserve(c.input_edges.size());

  // Explicit-stack pre-order walk (clusters can be 100k-node chains; a
  // recursive walk overflows the stack). Each stack item is either a member
  // node to expand or an already-resolved term; both are pushed in reverse
  // operand order so terms pop out in the same left-to-right order the
  // natural recursion would emit them.
  struct Item {
    bool is_term;
    Term term;    // valid when is_term
    NodeId id;    // valid when !is_term
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
    const Node& n = g.node(f.id);
    int npending = 0;
    auto handle = [&](EdgeId eid, bool sub_neg, int shift) {
      const NodeId src = g.edge(eid).src;
      if (p.index_of(src) == ci) {
        pending[npending++] = Item{false, {}, src, sub_neg, shift};
      } else {
        pending[npending++] =
            Item{true, Term{sub_neg, {eid}, n.width, shift}, {}, false, 0};
      }
    };
    switch (n.kind) {
      case OpKind::Add:
        handle(n.in[0], f.neg, f.shift);
        handle(n.in[1], f.neg, f.shift);
        break;
      case OpKind::Sub:
        handle(n.in[0], f.neg, f.shift);
        handle(n.in[1], !f.neg, f.shift);
        break;
      case OpKind::Neg:
        handle(n.in[0], !f.neg, f.shift);
        break;
      case OpKind::Shl:
        // x << s scales every addend below by 2^s.
        handle(n.in[0], f.neg, f.shift + n.shift);
        break;
      case OpKind::Mul:
        // Synthesizability Condition 1 guarantees multiplier operands enter
        // the cluster from outside; the product is a single addend.
        out.terms.push_back(Term{f.neg, {n.in[0], n.in[1]}, n.width, f.shift});
        break;
      default:
        // Clusters contain only arithmetic operators.
        break;
    }
    for (int k = npending - 1; k >= 0; --k) stack.push_back(pending[k]);
  }
  return out;
}

std::vector<Addend> cluster_addends(const Graph& g, const Cluster& c,
                                    const FlattenedCluster& flat,
                                    const InfoAnalysis& ia) {
  (void)c;
  std::vector<Addend> addends;
  addends.reserve(flat.terms.size());
  for (const Term& t : flat.terms) {
    const std::int64_t sign = t.negate ? -1 : 1;
    // A path shift of s scales the addend by 2^s: s more content bits.
    auto shifted = [&t](InfoContent ic) {
      return ic.width == 0 ? ic : InfoContent{ic.width + t.shift, ic.sign};
    };
    if (t.factors.size() == 1) {
      addends.push_back(Addend{shifted(ia.operand(t.factors[0])), sign});
      continue;
    }
    // Product term: fold a small Const factor into a coefficient
    // (Observation 5.9); otherwise use the product's intrinsic content.
    const InfoContent ic0 = ia.operand(t.factors[0]);
    const InfoContent ic1 = ia.operand(t.factors[1]);
    int const_idx = -1;
    for (int k = 0; k < 2; ++k) {
      const Node& src = g.node(g.edge(t.factors[static_cast<std::size_t>(k)]).src);
      if (src.kind == OpKind::Const && src.value.width() <= 63 &&
          const_idx == -1) {
        const_idx = k;
      }
    }
    if (const_idx >= 0) {
      const Node& src =
          g.node(g.edge(t.factors[static_cast<std::size_t>(const_idx)]).src);
      // Interpret the constant through its own minimal claim: unsigned
      // content reads as a non-negative integer, signed content as two's
      // complement.
      const int iu = src.value.min_extension_width(Sign::Unsigned);
      const std::int64_t cval = iu < src.value.width()
                                    ? static_cast<std::int64_t>(
                                          src.value.to_uint64())
                                    : src.value.to_int64();
      if (std::llabs(cval) <= 64) {
        const InfoContent other = const_idx == 0 ? ic1 : ic0;
        addends.push_back(Addend{shifted(other), sign * cval});
        continue;
      }
    }
    addends.push_back(Addend{shifted(analysis::ic_mul(ic0, ic1)), sign});
  }
  return addends;
}

InfoContent rebalanced_cluster_bound(const Graph& g, const Partition& p,
                                     int ci, const InfoAnalysis& ia) {
  const FlattenedCluster flat = flatten_cluster(g, p, ci);
  return analysis::huffman_rebalanced_bound(cluster_addends(
      g, p.clusters[static_cast<std::size_t>(ci)], flat, ia));
}

}  // namespace dpmerge::cluster
