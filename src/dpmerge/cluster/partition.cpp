#include "dpmerge/cluster/partition.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <sstream>

namespace dpmerge::cluster {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

std::string Partition::summary(const Graph& g) const {
  std::ostringstream os;
  os << clusters.size() << " cluster(s):";
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    os << " [";
    for (std::size_t k = 0; k < clusters[i].nodes.size(); ++k) {
      if (k) os << " ";
      const Node& n = g.node(clusters[i].nodes[k]);
      os << dfg::to_string(n.kind) << n.id.value;
    }
    os << "]";
  }
  return os.str();
}

Partition partition_from_breaks(const Graph& g,
                                const std::vector<bool>& is_break) {
  Partition p;
  p.cluster_of.assign(static_cast<std::size_t>(g.node_count()), -1);

  // Pass 1, reverse topological order: decide every arithmetic node's
  // cluster (clusters are numbered in the order their roots are met) and
  // count the members of each.
  const dfg::Csr& csr = g.freeze();
  std::vector<int> members;
  for (auto it = csr.topo.rbegin(); it != csr.topo.rend(); ++it) {
    const NodeId id = *it;
    if (!dfg::is_arith_operator(g.node(id).kind)) continue;
    const auto idx = static_cast<std::size_t>(id.value);

    // A non-break node may only join a cluster if *all* of its consumers are
    // clustered operators sharing one cluster; otherwise its value is needed
    // in more than one place and it must root its own cluster. This realises
    // Synthesizability Condition 2 (unique cluster outputs) — see DESIGN.md
    // §2 on the paper's garbled statement of that condition. The verdict
    // does not depend on the order the consumers are read in.
    const auto fanout = csr.out(id);
    int target = -1;
    bool must_root = is_break[idx] || fanout.empty();
    for (std::int32_t eid : fanout) {
      if (must_root) break;
      const NodeId dst = g.edge(EdgeId{eid}).dst;
      const int c = p.cluster_of[static_cast<std::size_t>(dst.value)];
      if (c < 0 || (target != -1 && target != c)) {
        must_root = true;
      } else {
        target = c;
      }
    }
    if (must_root) {
      target = static_cast<int>(members.size());
      members.push_back(0);
    }
    p.cluster_of[idx] = target;
    ++members[static_cast<std::size_t>(target)];
  }

  // The cluster an edge enters from outside (destination a member, source
  // not), or -1.
  auto entered = [&p](const Edge& e) {
    const int cd = p.index_of(e.dst);
    return cd >= 0 && p.index_of(e.src) != cd ? cd : -1;
  };
  std::vector<int> inputs(members.size(), 0);
  for (const Edge& e : g.edges()) {
    if (const int ci = entered(e); ci >= 0) {
      ++inputs[static_cast<std::size_t>(ci)];
    }
  }

  // Pass 2: size every list exactly, then fill members in the same reverse
  // topological order (the root comes first) and input edges in edge-id
  // order.
  p.clusters.resize(members.size());
  for (std::size_t ci = 0; ci < members.size(); ++ci) {
    p.clusters[ci].nodes.reserve(static_cast<std::size_t>(members[ci]));
    p.clusters[ci].input_edges.reserve(static_cast<std::size_t>(inputs[ci]));
  }
  for (auto it = csr.topo.rbegin(); it != csr.topo.rend(); ++it) {
    const int ci = p.index_of(*it);
    if (ci < 0) continue;
    Cluster& c = p.clusters[static_cast<std::size_t>(ci)];
    if (c.nodes.empty()) c.root = *it;
    c.nodes.push_back(*it);
  }
  for (const Edge& e : g.edges()) {
    if (const int ci = entered(e); ci >= 0) {
      p.clusters[static_cast<std::size_t>(ci)].input_edges.push_back(e.id);
    }
  }
  return p;
}

std::vector<std::string> validate_partition(const Graph& g,
                                            const Partition& p) {
  std::vector<std::string> errs;
  auto err = [&errs](std::string m) { errs.push_back(std::move(m)); };

  std::vector<int> seen(static_cast<std::size_t>(g.node_count()), -1);
  for (std::size_t ci = 0; ci < p.clusters.size(); ++ci) {
    const Cluster& c = p.clusters[ci];
    if (c.nodes.empty()) {
      err("cluster " + std::to_string(ci) + " is empty");
      continue;
    }
    for (NodeId n : c.nodes) {
      if (!dfg::is_arith_operator(g.node(n).kind)) {
        err("cluster " + std::to_string(ci) +
            " contains a non-arithmetic node");
      }
      if (seen[static_cast<std::size_t>(n.value)] != -1) {
        err("node " + std::to_string(n.value) + " in two clusters");
      }
      seen[static_cast<std::size_t>(n.value)] = static_cast<int>(ci);
      if (p.index_of(n) != static_cast<int>(ci)) {
        err("cluster_of inconsistent for node " + std::to_string(n.value));
      }
    }
    // Unique output: exactly one member (the root) has out-edges leaving the
    // cluster; all other members' fanout stays inside.
    std::set<int> members;
    for (NodeId n : c.nodes) members.insert(n.value);
    int exits = 0;
    for (NodeId n : c.nodes) {
      bool leaves = false;
      for (EdgeId eid : g.node(n).out) {
        if (!members.count(g.edge(eid).dst.value)) leaves = true;
      }
      if (leaves || g.node(n).out.empty()) {
        ++exits;
        if (n != c.root) {
          err("cluster " + std::to_string(ci) + ": node " +
              std::to_string(n.value) + " exits but is not the root");
        }
      }
    }
    if (exits != 1) {
      err("cluster " + std::to_string(ci) + " has " + std::to_string(exits) +
          " exit nodes");
    }
    // Connectivity (as an undirected subgraph).
    std::set<int> reached;
    std::vector<NodeId> stack{c.root};
    reached.insert(c.root.value);
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      const Node& nd = g.node(cur);
      auto visit = [&](NodeId nb) {
        if (members.count(nb.value) && !reached.count(nb.value)) {
          reached.insert(nb.value);
          stack.push_back(nb);
        }
      };
      for (EdgeId eid : nd.in) visit(g.edge(eid).src);
      for (EdgeId eid : nd.out) visit(g.edge(eid).dst);
    }
    if (reached.size() != members.size()) {
      err("cluster " + std::to_string(ci) + " is not connected");
    }
  }
  // Coverage: every arithmetic node clustered.
  for (const Node& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind) &&
        seen[static_cast<std::size_t>(n.id.value)] == -1) {
      err("arithmetic node " + std::to_string(n.id.value) + " unclustered");
    }
  }
  return errs;
}

}  // namespace dpmerge::cluster
