// Builds the frozen CSR view of a Graph (see Csr in graph.h): flat fanin /
// fanout adjacency and the Kahn-LIFO topological order. Everything here is a
// pure function of the graph structure, so the cache keys off the structural
// version counter alone.

#include "dpmerge/dfg/graph.h"

namespace dpmerge::dfg {

namespace {

void build_csr(const Graph& g, Csr& c) {
  const int n = g.node_count();
  const int m = g.edge_count();
  c.num_nodes = n;
  c.num_edges = m;

  // Fanout / fanin adjacency. Out-edges keep each node's insertion order
  // (same as Node::out); in-edges keep destination-port order, skipping
  // unconnected ports.
  c.out_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  c.in_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  c.out_edges.resize(static_cast<std::size_t>(m));
  std::size_t in_total = 0;
  for (const Node& nd : g.nodes()) {
    c.out_begin[static_cast<std::size_t>(nd.id.value) + 1] =
        static_cast<std::int32_t>(nd.out.size());
    std::int32_t ins = 0;
    for (EdgeId e : nd.in) {
      if (e.valid()) ++ins;
    }
    c.in_begin[static_cast<std::size_t>(nd.id.value) + 1] = ins;
    in_total += static_cast<std::size_t>(ins);
  }
  for (int v = 0; v < n; ++v) {
    c.out_begin[static_cast<std::size_t>(v) + 1] +=
        c.out_begin[static_cast<std::size_t>(v)];
    c.in_begin[static_cast<std::size_t>(v) + 1] +=
        c.in_begin[static_cast<std::size_t>(v)];
  }
  c.in_edges.resize(in_total);
  for (const Node& nd : g.nodes()) {
    std::int32_t* out =
        c.out_edges.data() + c.out_begin[static_cast<std::size_t>(nd.id.value)];
    for (EdgeId e : nd.out) *out++ = e.value;
    std::int32_t* in =
        c.in_edges.data() + c.in_begin[static_cast<std::size_t>(nd.id.value)];
    for (EdgeId e : nd.in) {
      if (e.valid()) *in++ = e.value;
    }
  }

  // Kahn-LIFO topological order over the flat arrays — must stay
  // element-for-element identical to tests/dfg_oracle.h.
  std::vector<int> pending(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> ready;
  c.topo.clear();
  c.topo.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto cnt = static_cast<int>(c.in_begin[static_cast<std::size_t>(v) +
                                                 1] -
                                      c.in_begin[static_cast<std::size_t>(v)]);
    pending[static_cast<std::size_t>(v)] = cnt;
    if (cnt == 0) ready.push_back(NodeId{v});
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    c.topo.push_back(id);
    for (std::int32_t eid : c.out(id)) {
      const NodeId d = g.edge(EdgeId{eid}).dst;
      if (--pending[static_cast<std::size_t>(d.value)] == 0) {
        ready.push_back(d);
      }
    }
  }
}

}  // namespace

const Csr& Graph::freeze() const {
  if (csr_version_ != version_) {
    build_csr(*this, csr_);
    csr_version_ = version_;
  }
  return csr_;
}

}  // namespace dpmerge::dfg
