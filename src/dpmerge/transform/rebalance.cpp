#include "dpmerge/transform/rebalance.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/cluster/clusterer.h"
#include "dpmerge/cluster/flatten.h"
#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::transform {

using analysis::InfoContent;
using cluster::Term;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

int arith_depth(const Graph& g) {
  std::vector<int> depth(static_cast<std::size_t>(g.node_count()), 0);
  int best = 0;
  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    int d = 0;
    for (EdgeId eid : n.in) {
      d = std::max(d, depth[static_cast<std::size_t>(g.edge(eid).src.value)]);
    }
    if (dfg::is_arith_operator(n.kind)) ++d;
    depth[static_cast<std::size_t>(id.value)] = d;
    best = std::max(best, d);
  }
  return best;
}

namespace {

/// One operand of the balanced tree being built: a node in the new graph
/// whose (claim-signed) value is the magnitude of a term, plus the term's
/// sign and a claim used both for combination ordering and for the edge
/// signedness that reconstructs the ideal value at the wider tree nodes.
struct Item {
  NodeId node;       // in the new graph
  int out_width;     // width of `node`
  InfoContent claim;
  bool neg;
};

struct ItemOrder {
  bool operator()(const Item& a, const Item& b) const {
    if (a.claim.width != b.claim.width) return a.claim.width > b.claim.width;
    return a.node.value > b.node.value;  // deterministic tie-break
  }
};

}  // namespace

Graph rebalance_clusters(const Graph& g, RebalanceStats* stats) {
  obs::Span span("transform.rebalance");
  check::enforce_pre(g, "transform.rebalance.pre");
  int rebuilt = 0;
  const auto cr = cluster::cluster_maximal(g);
  const auto& ia = cr.info;

  Graph ng;
  std::vector<NodeId> map(static_cast<std::size_t>(g.node_count()), NodeId{});
  auto mapped = [&map](NodeId old) {
    const NodeId m = map[static_cast<std::size_t>(old.value)];
    assert(m.valid() && "source node not yet rebuilt");
    return m;
  };
  auto clone_edges = [&](const Node& n, NodeId nn) {
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      const Edge& e = g.edge(n.in[p]);
      ng.add_edge(mapped(e.src), nn, static_cast<int>(p), e.width, e.sign);
    }
  };

  // Clone sources first, in original id order, so the rebuilt graph's
  // input/const interface order matches the original exactly.
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::Input) {
      const NodeId nn = ng.add_node(OpKind::Input, n.width, g.name(n));
      ng.set_node_ext_sign(nn, n.ext_sign);
      map[static_cast<std::size_t>(n.id.value)] = nn;
    } else if (n.kind == OpKind::Const) {
      map[static_cast<std::size_t>(n.id.value)] = ng.add_const(n.value, g.name(n));
    }
  }

  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    auto& slot = map[static_cast<std::size_t>(id.value)];
    if (slot.valid()) continue;  // inputs/consts already cloned
    if (!dfg::is_arith_operator(n.kind)) {
      // Inputs, consts, outputs, extensions, comparators: clone verbatim.
      const NodeId nn = n.kind == OpKind::Const
                            ? ng.add_const(n.value, g.name(n))
                            : ng.add_node(n.kind, n.width, g.name(n));
      ng.set_node_ext_sign(nn, n.ext_sign);
      clone_edges(n, nn);
      slot = nn;
      continue;
    }
    const int ci = cr.partition.index_of(id);
    const auto& c = cr.partition.clusters[static_cast<std::size_t>(ci)];
    if (c.root != id) continue;  // interior nodes dissolve into the tree

    const int W = n.width;
    const auto flat = cluster::flatten_cluster(g, cr.partition, ci);

    std::priority_queue<Item, std::vector<Item>, ItemOrder> heap;
    for (const Term& t : flat.terms) {
      Item item{};
      item.neg = t.negate;
      if (t.factors.size() == 2) {
        // Keep the member multiplier as a leaf, re-instantiated verbatim.
        const Node& mul = g.node(g.edge(t.factors[0]).dst);
        const NodeId nm = ng.add_node(OpKind::Mul, mul.width);
        clone_edges(mul, nm);
        item.node = nm;
        item.out_width = mul.width;
        item.claim = ia.out(mul.id);
      } else {
        // Materialise the delivered entry operand with an Extension node
        // (pure wiring) so the tree leaf has exactly the original value.
        const Edge& e = g.edge(t.factors[0]);
        const NodeId ext = ng.add_node(OpKind::Extension, t.consumed_width);
        ng.set_node_ext_sign(ext, e.sign);
        ng.add_edge(mapped(e.src), ext, 0, e.width, e.sign);
        item.node = ext;
        item.out_width = t.consumed_width;
        item.claim = ia.operand(e.id);
      }
      if (t.shift > 0) {
        const NodeId sh = ng.add_node(OpKind::Shl, W);
        ng.set_node_shift(sh, t.shift);
        ng.add_edge(item.node, sh, 0, item.out_width, item.claim.sign);
        item.node = sh;
        item.out_width = W;
        item.claim = analysis::ic_clip(
            {item.claim.width + t.shift, item.claim.sign}, W);
      }
      heap.push(item);
    }

    // Huffman combination order (Section 5.2): repeatedly join the two
    // smallest-content operands; signs fold into add/sub selection.
    while (heap.size() > 1) {
      Item a = heap.top();
      heap.pop();
      Item b = heap.top();
      heap.pop();
      Item r{};
      r.out_width = W;
      if (a.neg == b.neg) {
        const NodeId nn = ng.add_node(OpKind::Add, W);
        ng.add_edge(a.node, nn, 0, a.out_width, a.claim.sign);
        ng.add_edge(b.node, nn, 1, b.out_width, b.claim.sign);
        r.node = nn;
        r.neg = a.neg;
        r.claim = analysis::ic_clip(analysis::ic_add(a.claim, b.claim), W);
      } else {
        const Item& pos = a.neg ? b : a;
        const Item& negv = a.neg ? a : b;
        const NodeId nn = ng.add_node(OpKind::Sub, W);
        ng.add_edge(pos.node, nn, 0, pos.out_width, pos.claim.sign);
        ng.add_edge(negv.node, nn, 1, negv.out_width, negv.claim.sign);
        r.node = nn;
        r.neg = false;
        r.claim = analysis::ic_clip(analysis::ic_sub(pos.claim, negv.claim), W);
      }
      heap.push(r);
    }

    Item top = heap.top();
    if (top.neg) {
      const NodeId nn = ng.add_node(OpKind::Neg, W);
      ng.add_edge(top.node, nn, 0, top.out_width, top.claim.sign);
      top.node = nn;
      top.out_width = W;
    } else if (top.out_width != W) {
      // Single positive leaf narrower/wider than the root (degenerate
      // cluster): restore the root width with an Extension node.
      const NodeId nn = ng.add_node(OpKind::Extension, W);
      ng.set_node_ext_sign(nn, top.claim.sign);
      ng.add_edge(top.node, nn, 0, top.out_width, top.claim.sign);
      top.node = nn;
      top.out_width = W;
    }
    slot = top.node;
    ++rebuilt;
  }

  if (stats) {
    stats->clusters_rebuilt = rebuilt;
    stats->max_depth_before = arith_depth(g);
    stats->max_depth_after = arith_depth(ng);
  }
  if (obs::StatSink* sink = obs::current_sink()) {
    sink->add("transform.rebalance.clusters_rebuilt", rebuilt);
  }
  check::enforce(ng, "transform.rebalance");
  return ng;
}

}  // namespace dpmerge::transform
