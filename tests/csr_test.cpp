// Graph::freeze() CSR view: fanin/fanout round-trip against the edge list,
// topo-order identity with the Kahn-LIFO oracle (dfg_oracle.h),
// cache-invalidation semantics, name interning and reserve().

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/support/rng.h"
#include "dfg_oracle.h"

namespace dpmerge::dfg {
namespace {

Graph sample_graph(std::uint64_t seed, int ops = 60) {
  Rng rng(seed);
  RandomGraphOptions opt;
  opt.num_operators = ops;
  return random_graph(rng, opt);
}

TEST(CsrTest, FanoutRoundTripsEdgeList) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = sample_graph(seed);
    const Csr& c = g.freeze();
    ASSERT_EQ(c.num_nodes, g.node_count());
    ASSERT_EQ(c.num_edges, g.edge_count());
    for (const Node& n : g.nodes()) {
      const auto out = c.out(n.id);
      ASSERT_EQ(out.size(), n.out.size());
      // Fanout keeps the Node::out insertion order.
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], n.out[i].value);
        EXPECT_EQ(g.edge(EdgeId{out[i]}).src, n.id);
      }
    }
  }
}

TEST(CsrTest, FaninIsPortOrdered) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = sample_graph(seed);
    const Csr& c = g.freeze();
    for (const Node& n : g.nodes()) {
      const auto in = c.in(n.id);
      // The CSR fanin is the valid entries of Node::in, in port order.
      std::vector<std::int32_t> want;
      for (EdgeId e : n.in) {
        if (e.valid()) want.push_back(e.value);
      }
      ASSERT_EQ(in.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(in[i], want[i]);
        EXPECT_EQ(g.edge(EdgeId{in[i]}).dst, n.id);
      }
    }
  }
}

TEST(CsrTest, EveryEdgeAppearsExactlyOnceEachSide) {
  const Graph g = sample_graph(7, 120);
  const Csr& c = g.freeze();
  std::multiset<std::int32_t> outs(c.out_edges.begin(), c.out_edges.end());
  std::multiset<std::int32_t> ins(c.in_edges.begin(), c.in_edges.end());
  for (const Edge& e : g.edges()) {
    EXPECT_EQ(outs.count(e.id.value), 1u) << "edge " << e.id.value;
    EXPECT_EQ(ins.count(e.id.value), 1u) << "edge " << e.id.value;
  }
}

TEST(CsrTest, TopoIdenticalToGraphTopoOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = sample_graph(seed);
    EXPECT_EQ(g.freeze().topo, oracle::topo_order(g));
  }
}

TEST(CsrTest, CacheInvalidationSemantics) {
  Graph g;
  Builder b(g);
  const NodeId x = b.input("x", 8);
  const NodeId y = b.input("y", 8);
  const NodeId s = b.add(9, Operand{x}, Operand{y});
  b.output("o", 9, Operand{s});

  const Csr& c1 = g.freeze();
  const std::uint64_t v1 = g.structure_version();
  // Attribute mutations do not invalidate the frozen view.
  g.set_node_width(s, 10);
  g.set_edge_width(g.node(s).in[0], 10);
  EXPECT_EQ(g.structure_version(), v1);
  const std::size_t topo_before = c1.topo.size();

  // Structural mutation bumps the version and rebuilds on the next freeze.
  const NodeId z = b.input("z", 4);
  b.output("oz", 4, Operand{z});
  EXPECT_GT(g.structure_version(), v1);
  const Csr& c2 = g.freeze();
  EXPECT_EQ(c2.topo.size(), topo_before + 2);
  EXPECT_TRUE(g.validate().empty());
}

TEST(CsrTest, NameInterningDeduplicatesAndRoundTrips) {
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 8, "same");
  const NodeId bb = g.add_node(OpKind::Input, 8, "same");
  const NodeId c = g.add_node(OpKind::Input, 8, "other");
  const NodeId anon = g.add_node(OpKind::Add, 8);
  EXPECT_EQ(g.name(a), "same");
  EXPECT_EQ(g.name(bb), "same");
  EXPECT_EQ(g.node(a).name_id, g.node(bb).name_id);
  EXPECT_EQ(g.name(c), "other");
  EXPECT_NE(g.node(c).name_id, g.node(a).name_id);
  EXPECT_EQ(g.node(anon).name_id, -1);
  EXPECT_EQ(g.name(anon), "");
}

TEST(CsrTest, ReservePreservesBehaviour) {
  Graph g;
  g.reserve(100, 200);
  Builder b(g);
  std::vector<NodeId> prev{b.input("x", 8)};
  for (int i = 0; i < 40; ++i) {
    prev.push_back(b.add(9, Operand{prev.back()}, Operand{prev.front()}));
  }
  b.output("o", 9, Operand{prev.back()});
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.freeze().topo, oracle::topo_order(g));
}

}  // namespace
}  // namespace dpmerge::dfg
