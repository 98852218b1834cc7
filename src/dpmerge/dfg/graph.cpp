#include "dpmerge/dfg/graph.h"

#include <algorithm>
#include <sstream>

namespace dpmerge::dfg {

const std::string& Graph::empty_name() {
  static const std::string empty;
  return empty;
}

std::int32_t Graph::intern_name(std::string name) {
  if (name.empty()) return -1;
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::int32_t>(names_.size());
  name_ids_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

void Graph::reserve(int nodes, int edges) {
  nodes_.reserve(static_cast<std::size_t>(nodes));
  edges_.reserve(static_cast<std::size_t>(edges));
}

NodeId Graph::add_node(OpKind kind, int width, std::string name) {
  Node n;
  n.id = NodeId{node_count()};
  n.kind = kind;
  n.width = width;
  n.name_id = intern_name(std::move(name));
  nodes_.push_back(std::move(n));
  ++version_;
  return nodes_.back().id;
}

NodeId Graph::add_const(const BitVector& value, std::string name) {
  const NodeId id = add_node(OpKind::Const, value.width(), std::move(name));
  nodes_[static_cast<std::size_t>(id.value)].value = value;
  return id;
}

EdgeId Graph::add_edge(NodeId src, NodeId dst, int dst_port, int width,
                       Sign sign) {
  assert(src.valid() && dst.valid());
  Edge e;
  e.id = EdgeId{edge_count()};
  e.src = src;
  e.dst = dst;
  e.dst_port = dst_port;
  e.width = width == 0 ? node(src).width : width;
  e.sign = sign;
  edges_.push_back(e);

  auto& sn = nodes_[static_cast<std::size_t>(src.value)];
  sn.out.push_back(e.id);
  auto& dn = nodes_[static_cast<std::size_t>(dst.value)];
  if (static_cast<int>(dn.in.size()) <= dst_port) {
    dn.in.resize(static_cast<std::size_t>(dst_port) + 1, EdgeId{});
  }
  assert(!dn.in[static_cast<std::size_t>(dst_port)].valid() &&
         "input port already connected");
  dn.in[static_cast<std::size_t>(dst_port)] = e.id;
  ++version_;
  return e.id;
}

void Graph::set_node_width(NodeId id, int width) {
  assert(width > 0);
  nodes_[static_cast<std::size_t>(id.value)].width = width;
}

void Graph::set_node_ext_sign(NodeId id, Sign s) {
  nodes_[static_cast<std::size_t>(id.value)].ext_sign = s;
}

void Graph::set_node_shift(NodeId id, int shift) {
  assert(shift >= 0);
  nodes_[static_cast<std::size_t>(id.value)].shift = shift;
}

void Graph::set_edge_width(EdgeId id, int width) {
  assert(width > 0);
  edges_[static_cast<std::size_t>(id.value)].width = width;
}

void Graph::set_edge_sign(EdgeId id, Sign s) {
  edges_[static_cast<std::size_t>(id.value)].sign = s;
}

NodeId Graph::insert_extension_after(NodeId n, int ext_width, Sign ext_sign,
                                     int edge_width) {
  const NodeId ext = add_node(OpKind::Extension, ext_width);
  nodes_[static_cast<std::size_t>(ext.value)].ext_sign = ext_sign;

  // Move existing out-edges of n so they originate at ext. The n->ext edge is
  // added afterwards so it is not itself moved.
  auto moved = nodes_[static_cast<std::size_t>(n.value)].out;
  nodes_[static_cast<std::size_t>(n.value)].out.clear();
  for (EdgeId eid : moved) {
    edges_[static_cast<std::size_t>(eid.value)].src = ext;
    nodes_[static_cast<std::size_t>(ext.value)].out.push_back(eid);
  }
  ++version_;
  add_edge(n, ext, 0, edge_width, ext_sign);
  return ext;
}

NodeId Graph::insert_extension_retarget(NodeId n, int ext_width,
                                        Sign ext_sign,
                                        const std::vector<EdgeId>& moved) {
  const NodeId ext = add_node(OpKind::Extension, ext_width);
  nodes_[static_cast<std::size_t>(ext.value)].ext_sign = ext_sign;
  auto& n_out = nodes_[static_cast<std::size_t>(n.value)].out;
  for (EdgeId eid : moved) {
    const auto it = std::find(n_out.begin(), n_out.end(), eid);
    assert(it != n_out.end() && "edge is not an out-edge of n");
    n_out.erase(it);
    edges_[static_cast<std::size_t>(eid.value)].src = ext;
    nodes_[static_cast<std::size_t>(ext.value)].out.push_back(eid);
  }
  ++version_;
  add_edge(n, ext, 0, node(n).width, ext_sign);
  return ext;
}

std::vector<NodeId> Graph::inputs() const {
  std::vector<NodeId> r;
  for (const auto& n : nodes_) {
    if (n.kind == OpKind::Input) r.push_back(n.id);
  }
  return r;
}

std::vector<NodeId> Graph::outputs() const {
  std::vector<NodeId> r;
  for (const auto& n : nodes_) {
    if (n.kind == OpKind::Output) r.push_back(n.id);
  }
  return r;
}

std::vector<std::string> Graph::validate() const {
  std::vector<std::string> errs;
  auto err = [&errs](std::string m) { errs.push_back(std::move(m)); };
  // The tag string is built lazily — only when a violation is reported — so
  // validating a clean 100k-node graph stays allocation-free per node.
  auto tag = [](const Node& n) {
    return "node " + std::to_string(n.id.value) + " (" +
           std::string(to_string(n.kind)) + ")";
  };

  for (const auto& n : nodes_) {
    if (n.width <= 0) err(tag(n) + ": non-positive width");
    const int want = operand_count(n.kind);
    if (static_cast<int>(n.in.size()) != want) {
      err(tag(n) + ": expected " + std::to_string(want) + " operands, has " +
          std::to_string(n.in.size()));
    }
    for (std::size_t p = 0; p < n.in.size(); ++p) {
      if (!n.in[p].valid()) {
        err(tag(n) + ": input port " + std::to_string(p) + " unconnected");
      } else if (edge(n.in[p]).dst != n.id ||
                 edge(n.in[p]).dst_port != static_cast<int>(p)) {
        err(tag(n) + ": inconsistent in-edge bookkeeping");
      }
    }
    if (n.kind == OpKind::Output && !n.out.empty()) {
      err(tag(n) + ": output node has fanout");
    }
    for (EdgeId eid : n.out) {
      if (edge(eid).src != n.id) err(tag(n) + ": inconsistent out-edge");
    }
    if (n.kind == OpKind::Const && n.value.width() != n.width) {
      err(tag(n) + ": const value width mismatch");
    }
  }
  for (const auto& e : edges_) {
    if (e.width <= 0) {
      err("edge " + std::to_string(e.id.value) + ": non-positive width");
    }
  }
  // A cycle shows up as a partial frozen order.
  if (freeze().topo.size() != nodes_.size()) err("graph contains a cycle");
  return errs;
}

std::string Graph::to_dot(const std::vector<std::string>& annotations) const {
  std::ostringstream os;
  os << "digraph dfg {\n  rankdir=TB;\n";
  for (const auto& n : nodes_) {
    os << "  n" << n.id.value << " [label=\"";
    if (!name(n).empty()) os << name(n) << "\\n";
    os << to_string(n.kind) << " w=" << n.width;
    if (n.kind == OpKind::Extension) os << " t=" << to_string(n.ext_sign);
    if (n.kind == OpKind::Shl) os << " <<" << n.shift;
    if (static_cast<std::size_t>(n.id.value) < annotations.size() &&
        !annotations[static_cast<std::size_t>(n.id.value)].empty()) {
      os << "\\n" << annotations[static_cast<std::size_t>(n.id.value)];
    }
    os << "\"";
    if (n.kind == OpKind::Input || n.kind == OpKind::Output) {
      os << " shape=box";
    }
    os << "];\n";
  }
  for (const auto& e : edges_) {
    os << "  n" << e.src.value << " -> n" << e.dst.value << " [label=\"w="
       << e.width << (e.sign == Sign::Signed ? " s" : " u") << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace dpmerge::dfg
