#include "dpmerge/transform/cse.h"

#include <map>
#include <tuple>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::transform {

using dfg::Edge;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

namespace {

/// Structural key of a rebuilt node: kind, width, attrs, and the mapped
/// operand descriptors.
using OperandKey = std::tuple<int /*src*/, int /*width*/, int /*sign*/>;
using NodeKey =
    std::tuple<int /*kind*/, int /*width*/, int /*shift*/, int /*ext_sign*/,
               std::vector<OperandKey>>;

}  // namespace

Graph share_common_subexpressions(const Graph& g, CseStats* stats) {
  obs::Span span("transform.cse");
  check::enforce_pre(g, "transform.cse.pre");
  Graph ng;
  std::vector<NodeId> map(static_cast<std::size_t>(g.node_count()), NodeId{});
  std::map<NodeKey, NodeId> seen;
  std::map<std::string, NodeId> const_seen;  // value string -> node
  CseStats local;

  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    auto& slot = map[static_cast<std::size_t>(id.value)];

    if (n.kind == OpKind::Const) {
      const std::string key =
          std::to_string(n.width) + ":" + n.value.to_string();
      const auto it = const_seen.find(key);
      if (it != const_seen.end()) {
        slot = it->second;
        ++local.nodes_merged;
      } else {
        slot = ng.add_const(n.value, g.name(n));
        const_seen.emplace(key, slot);
      }
      continue;
    }

    // Inputs and outputs are interface — never merged.
    const bool shareable = dfg::is_operator(n.kind);
    std::vector<OperandKey> ops;
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      const Edge& e = g.edge(n.in[p]);
      ops.emplace_back(map[static_cast<std::size_t>(e.src.value)].value,
                       e.width, static_cast<int>(e.sign));
    }
    if (shareable && dfg::is_commutative(n.kind) && ops.size() == 2 &&
        ops[1] < ops[0]) {
      std::swap(ops[0], ops[1]);
    }
    const NodeKey key{static_cast<int>(n.kind), n.width, n.shift,
                      static_cast<int>(n.ext_sign), ops};
    if (shareable) {
      const auto it = seen.find(key);
      if (it != seen.end()) {
        slot = it->second;
        ++local.nodes_merged;
        continue;
      }
    }
    const NodeId nn = ng.add_node(n.kind, n.width, g.name(n));
    ng.set_node_ext_sign(nn, n.ext_sign);
    ng.set_node_shift(nn, n.shift);
    // Commutative operand normalisation must also reorder the edges.
    std::vector<OperandKey> wire = ops;
    for (std::size_t p = 0; p < wire.size(); ++p) {
      ng.add_edge(NodeId{std::get<0>(wire[p])}, nn, static_cast<int>(p),
                  std::get<1>(wire[p]),
                  static_cast<Sign>(std::get<2>(wire[p])));
    }
    if (shareable) seen.emplace(key, nn);
    slot = nn;
  }

  obs::stat_add("transform.cse.nodes_merged", local.nodes_merged);
  if (stats) *stats = local;
  check::enforce(ng, "transform.cse");
  return ng;
}

}  // namespace dpmerge::transform
