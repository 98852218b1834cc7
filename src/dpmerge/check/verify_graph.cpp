#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/obs/obs.h"

namespace dpmerge::check {

namespace {

using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

Locus node_locus(const Graph& g, const Node& n) {
  return Locus{"node", n.id.value, -1, g.name(n)};
}

Locus edge_locus(const Edge& e) { return Locus{"edge", e.id.value, -1, {}}; }

std::string node_tag(const Graph& g, const Node& n) {
  return std::string(dfg::to_string(n.kind)) + " node " +
         std::to_string(n.id.value) +
         (g.name(n).empty() ? "" : " '" + g.name(n) + "'");
}

/// Reports the nodes the frozen topological order leaves out: a cycle keeps
/// its members and everything downstream of them unsorted. One finding lists
/// up to eight of them, in id order.
void check_cycle(const Graph& g, CheckReport& rep) {
  const std::vector<NodeId>& topo = g.freeze().topo;
  if (topo.size() == static_cast<std::size_t>(g.node_count())) return;
  std::vector<unsigned char> sorted(static_cast<std::size_t>(g.node_count()),
                                    0);
  for (NodeId v : topo) sorted[static_cast<std::size_t>(v.value)] = 1;
  std::string members;
  int listed = 0;
  for (int v = 0; v < g.node_count(); ++v) {
    if (sorted[static_cast<std::size_t>(v)]) continue;
    if (listed++ == 8) {
      members += " ...";
      break;
    }
    if (!members.empty()) members += " ";
    members += std::to_string(v);
  }
  rep.add(Severity::Error, "dfg.graph.cycle",
          "graph contains a directed cycle through nodes {" + members + "}");
}

}  // namespace

CheckReport verify(const Graph& g) {
  obs::Span span("check.verify.graph");
  CheckReport rep;
  const int nn = g.node_count();
  const int ne = g.edge_count();
  auto node_ok = [&](NodeId id) { return id.value >= 0 && id.value < nn; };

  // Edges first: endpoint range errors make the per-node sweep unsafe to
  // interpret, so report them and skip dependent checks per edge. Duplicate
  // (dst, port) targets are found by sorting packed keys afterwards — one
  // flat allocation instead of a per-node adjacency (this runs at every pass
  // boundary under Errors).
  std::vector<std::uint64_t> port_keys;
  port_keys.reserve(static_cast<std::size_t>(ne));
  for (int i = 0; i < ne; ++i) {
    const Edge& e = g.edges()[static_cast<std::size_t>(i)];
    if (e.id.value != i) {
      rep.add(Severity::Error, "dfg.edge.id",
              "edge at index " + std::to_string(i) + " carries id " +
                  std::to_string(e.id.value),
              Locus{"edge", i, -1, {}});
    }
    if (!node_ok(e.src) || !node_ok(e.dst)) {
      rep.add(Severity::Error, "dfg.edge.endpoints",
              "edge endpoints " + std::to_string(e.src.value) + " -> " +
                  std::to_string(e.dst.value) + " out of range",
              edge_locus(e));
      continue;
    }
    if (e.width <= 0) {
      rep.add(Severity::Error, "dfg.edge.width",
              "non-positive edge width " + std::to_string(e.width),
              edge_locus(e));
    }
    if (e.sign == Sign::Signed && dfg::is_comparator(g.node(e.src).kind)) {
      rep.add(Severity::Error, "dfg.sign.comparator",
              "edge from " + node_tag(g, g.node(e.src)) +
                  " marked signed: the zero-padded 1-bit result would "
                  "reinterpret 1 as -1 across a resize",
              edge_locus(e));
    }
    if (e.dst_port >= 0) {
      port_keys.push_back(
          (static_cast<std::uint64_t>(e.dst.value) << 32) |
          static_cast<std::uint32_t>(e.dst_port));
    }
  }

  for (int i = 0; i < nn; ++i) {
    const Node& n = g.nodes()[static_cast<std::size_t>(i)];
    if (n.id.value != i) {
      rep.add(Severity::Error, "dfg.node.id",
              "node at index " + std::to_string(i) + " carries id " +
                  std::to_string(n.id.value),
              Locus{"node", i, -1, g.name(n)});
      continue;  // the id-keyed checks below would point at the wrong node
    }
    if (n.width <= 0) {
      rep.add(Severity::Error, "dfg.node.width",
              node_tag(g, n) + ": non-positive width " + std::to_string(n.width),
              node_locus(g, n));
    }
    const int want = dfg::operand_count(n.kind);
    if (static_cast<int>(n.in.size()) != want) {
      rep.add(Severity::Error, "dfg.node.arity",
              node_tag(g, n) + ": expected " + std::to_string(want) +
                  " operand(s), has " + std::to_string(n.in.size()),
              node_locus(g, n));
    }
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      const EdgeId eid = n.in[p];
      Locus at = node_locus(g, n);
      at.aux = static_cast<int>(p);
      if (!eid.valid() || eid.value >= ne) {
        rep.add(Severity::Error, "dfg.port.unconnected",
                node_tag(g, n) + ": input port " + std::to_string(p) +
                    " is unconnected",
                at);
        continue;
      }
      const Edge& e = g.edge(eid);
      if (e.dst != n.id || e.dst_port != static_cast<int>(p)) {
        rep.add(Severity::Error, "dfg.port.bookkeeping",
                node_tag(g, n) + ": in-edge " + std::to_string(eid.value) +
                    " does not target this port",
                at);
      }
    }
    for (EdgeId eid : n.out) {
      if (!eid.valid() || eid.value >= ne || g.edge(eid).src != n.id) {
        rep.add(Severity::Error, "dfg.port.bookkeeping",
                node_tag(g, n) + ": out-edge list names edge " +
                    std::to_string(eid.value) + " which does not source here",
                node_locus(g, n));
      }
    }
    if (n.kind == OpKind::Output && !n.out.empty()) {
      rep.add(Severity::Error, "dfg.output.fanout",
              node_tag(g, n) + ": output node has fanout", node_locus(g, n));
    }
    if (n.kind == OpKind::Const && n.value.width() != n.width) {
      rep.add(Severity::Error, "dfg.const.canonical",
              node_tag(g, n) + ": constant value has width " +
                  std::to_string(n.value.width()) + ", node declares " +
                  std::to_string(n.width),
              node_locus(g, n));
    }
    if (n.kind == OpKind::Shl) {
      if (n.shift < 0) {
        rep.add(Severity::Error, "dfg.shl.shift",
                node_tag(g, n) + ": negative shift " + std::to_string(n.shift),
                node_locus(g, n));
      } else if (n.shift >= n.width && n.width > 0) {
        rep.add(Severity::Warning, "dfg.shl.wide-shift",
                node_tag(g, n) + ": shift " + std::to_string(n.shift) +
                    " >= width " + std::to_string(n.width) +
                    " discards the whole operand",
                node_locus(g, n));
      }
    } else if (n.shift != 0) {
      rep.add(Severity::Error, "dfg.shl.shift",
              node_tag(g, n) + ": shift attribute " + std::to_string(n.shift) +
                  " on a non-shift node",
              node_locus(g, n));
    }
  }

  // Duplicate (dst, port) targets: the in[] slot can only record one edge,
  // so a second edge into the same port is silently shadowed. Adjacent equal
  // keys after the sort mark the duplicates; report each port once.
  std::sort(port_keys.begin(), port_keys.end());
  for (std::size_t k = 1; k < port_keys.size(); ++k) {
    if (port_keys[k] != port_keys[k - 1]) continue;
    if (k >= 2 && port_keys[k] == port_keys[k - 2]) continue;
    const auto dst = static_cast<int>(port_keys[k] >> 32);
    const auto port = static_cast<int>(port_keys[k] & 0xffffffffu);
    const Node& n = g.node(NodeId{dst});
    Locus at = node_locus(g, n);
    at.aux = port;
    rep.add(Severity::Error, "dfg.edge.duplicate-port",
            node_tag(g, n) + ": multiple edges target input port " +
                std::to_string(port),
            at);
  }

  if (g.outputs().empty()) {
    rep.add(Severity::Warning, "dfg.graph.no-outputs",
            "graph has no Output node; every signal is unobservable");
  }

  // Only read the frozen order of structurally indexable graphs.
  if (!rep.has_rule("dfg.node.id") && !rep.has_rule("dfg.edge.endpoints")) {
    check_cycle(g, rep);
  }

  obs::stat_add("check.verify.graph.runs");
  return rep;
}

}  // namespace dpmerge::check
