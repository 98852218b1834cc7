#include "dpmerge/dfg/graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/support/rng.h"
#include "dfg_oracle.h"

namespace dpmerge::dfg {
namespace {

Graph simple_sum() {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s = b.add(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
  b.output("r", 9, {s});
  return g;
}

TEST(Graph, BuilderWiresPortsAndWidths) {
  const Graph g = simple_sum();
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_TRUE(g.validate().empty());

  const auto outs = g.outputs();
  ASSERT_EQ(outs.size(), 1u);
  const Node& r = g.node(outs[0]);
  EXPECT_EQ(g.name(r), "r");
  ASSERT_EQ(r.in.size(), 1u);
  const Edge& e = g.edge(r.in[0]);
  EXPECT_EQ(e.width, 9);  // width 0 defaulted to the source node's width
}

TEST(Graph, DefaultEdgeWidthIsSourceWidth) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 13);
  const auto o = b.output("r", 13, {a});
  const Edge& e = g.edge(g.node(o).in[0]);
  EXPECT_EQ(e.width, 13);
}

TEST(Graph, OperandCounts) {
  EXPECT_EQ(operand_count(OpKind::Input), 0);
  EXPECT_EQ(operand_count(OpKind::Const), 0);
  EXPECT_EQ(operand_count(OpKind::Output), 1);
  EXPECT_EQ(operand_count(OpKind::Neg), 1);
  EXPECT_EQ(operand_count(OpKind::Extension), 1);
  EXPECT_EQ(operand_count(OpKind::Add), 2);
  EXPECT_EQ(operand_count(OpKind::Sub), 2);
  EXPECT_EQ(operand_count(OpKind::Mul), 2);
}

TEST(Graph, KindPredicates) {
  EXPECT_TRUE(is_operator(OpKind::Add));
  EXPECT_TRUE(is_operator(OpKind::Extension));
  EXPECT_FALSE(is_operator(OpKind::Input));
  EXPECT_FALSE(is_operator(OpKind::Const));
  EXPECT_TRUE(is_arith_operator(OpKind::Mul));
  EXPECT_FALSE(is_arith_operator(OpKind::Extension));
}

TEST(Graph, TopoOrderRespectsEdges) {
  Rng rng(42);
  RandomGraphOptions opt;
  opt.num_operators = 40;
  const Graph g = random_graph(rng, opt);
  EXPECT_TRUE(g.validate().empty());
  const auto& order = g.freeze().topo;
  EXPECT_EQ(order, oracle::topo_order(g));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(g.node_count()));
  std::vector<int> pos(static_cast<std::size_t>(g.node_count()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i].value)] = static_cast<int>(i);
  }
  for (const Edge& e : g.edges()) {
    EXPECT_LT(pos[static_cast<std::size_t>(e.src.value)],
              pos[static_cast<std::size_t>(e.dst.value)]);
  }
}

TEST(Graph, ValidateDetectsMissingOperand) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const NodeId add = g.add_node(OpKind::Add, 4);
  g.add_edge(a, add, 0);
  // Second operand left unconnected.
  const auto errs = g.validate();
  EXPECT_FALSE(errs.empty());
}

TEST(Graph, ValidateDetectsCycleFromTheFrozenOrder) {
  Graph g = simple_sum();
  EXPECT_TRUE(g.validate().empty());
  // A second adder wired mutually with the first: s -> t -> s.
  const NodeId s{2};
  const NodeId t = g.add_node(OpKind::Add, 9);
  g.add_edge(s, t, 0);
  g.add_edge(t, s, 2);
  EXPECT_EQ(g.freeze().topo, oracle::topo_order(g));
  EXPECT_LT(g.freeze().topo.size(), static_cast<std::size_t>(g.node_count()));
  const auto errs = g.validate();
  EXPECT_NE(std::find(errs.begin(), errs.end(), "graph contains a cycle"),
            errs.end());
}

TEST(Graph, ValidateDetectsBadWidth) {
  Graph g;
  g.add_node(OpKind::Input, 0, "a");
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, InsertExtensionAfterMovesFanout) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto n = b.add(4, {a}, {a});
  const auto o1 = b.output("r1", 8, {n, 8, Sign::Signed});
  const auto o2 = b.output("r2", 8, {n, 8, Sign::Signed});
  const NodeId ext = g.insert_extension_after(n, 8, Sign::Signed, 4);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.node(ext).kind, OpKind::Extension);
  EXPECT_EQ(g.node(ext).width, 8);
  // Both outputs now read through the extension node.
  EXPECT_EQ(g.edge(g.node(o1).in[0]).src, ext);
  EXPECT_EQ(g.edge(g.node(o2).in[0]).src, ext);
  // n has exactly one out-edge, into ext.
  ASSERT_EQ(g.node(n).out.size(), 1u);
  EXPECT_EQ(g.edge(g.node(n).out[0]).dst, ext);
}

TEST(Graph, InsertExtensionRetargetMovesOnlyListed) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto n = b.add(4, {a}, {a});
  const auto o1 = b.output("r1", 8, {n, 8, Sign::Unsigned});
  const auto o2 = b.output("r2", 8, {n, 8, Sign::Unsigned});
  const EdgeId moved = g.node(o2).in[0];
  const NodeId ext = g.insert_extension_retarget(n, 8, Sign::Signed, {moved});
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.edge(g.node(o1).in[0]).src, n);
  EXPECT_EQ(g.edge(g.node(o2).in[0]).src, ext);
  ASSERT_EQ(g.node(n).out.size(), 2u);  // o1's edge + edge into ext
}

TEST(Graph, DotOutputMentionsAllNodes) {
  const Graph g = simple_sum();
  const std::string dot = g.to_dot();
  for (const Node& n : g.nodes()) {
    EXPECT_NE(dot.find(std::string("n").append(std::to_string(n.id.value))),
              std::string::npos);
  }
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Graph, RandomGraphsAreValid) {
  Rng rng(7);
  for (int t = 0; t < 25; ++t) {
    RandomGraphOptions opt;
    opt.num_inputs = 2 + static_cast<int>(rng.uniform(0, 4));
    opt.num_operators = 1 + static_cast<int>(rng.uniform(0, 30));
    const Graph g = random_graph(rng, opt);
    const auto errs = g.validate();
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs.front());
    // Every operator node must reach an output (no dangling results).
    for (const Node& n : g.nodes()) {
      if (n.kind != OpKind::Output) {
        EXPECT_FALSE(n.out.empty())
            << "node " << n.id.value << " has no fanout";
      }
    }
  }
}

TEST(Graph, ConstNodeCarriesValue) {
  Graph g;
  Builder b(g);
  const auto c = b.constant(8, -5, "k");
  EXPECT_EQ(g.node(c).kind, OpKind::Const);
  EXPECT_EQ(g.node(c).value.to_int64(), -5);
  EXPECT_EQ(g.node(c).width, 8);
}

}  // namespace
}  // namespace dpmerge::dfg
