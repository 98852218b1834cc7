#include "dpmerge/dfg/io.h"

#include <gtest/gtest.h>

#include "dpmerge/designs/figures.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dfg_oracle.h"

namespace dpmerge::dfg {
namespace {

using oracle::equivalent_by_simulation;

TEST(Io, ParseMinimalGraph) {
  const std::string text = R"(dfg v1
# a tiny adder
input a 8
input b 8 unsigned
node t add 9
output r 9
edge a t 0 9 signed
edge b t 1 9 unsigned
edge t r 0 9 signed
)";
  const Graph g = parse_graph(text);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.node(g.inputs()[1]).ext_sign, Sign::Unsigned);
}

TEST(Io, EveryOperatorKindRoundTripsThroughItsKeyword) {
  for (const OpInfo& op : kOps) {
    if (!is_operator(op.kind)) continue;
    Graph g;
    const NodeId n = g.add_node(op.kind, 8, "n");
    if (op.kind == OpKind::Shl) g.set_node_shift(n, 2);
    for (int p = 0; p < op.operands; ++p) {
      const std::string name = std::string("a").append(std::to_string(p));
      g.add_edge(g.add_node(OpKind::Input, 8, name), n, p);
    }
    g.add_edge(n, g.add_node(OpKind::Output, 8, "r"), 0);
    const std::string text = to_text(g);
    EXPECT_NE(text.find("node n " + std::string(op.keyword) + " 8"),
              std::string::npos)
        << text;
    const Graph back = parse_graph(text);
    EXPECT_EQ(back.node(n).kind, op.kind) << op.keyword;
    EXPECT_EQ(to_text(back), text);
  }
  // Names stay total over kinds outside the enum.
  EXPECT_EQ(to_string(static_cast<OpKind>(200)), "?");
  EXPECT_EQ(operand_count(static_cast<OpKind>(200)), 0);
}

TEST(Io, ParseShlExtConst) {
  const std::string text = R"(dfg v1
input a 4
const k 8 -3
node s shl 12 3
node e ext 10 signed
output r 10
edge a s 0 12 signed
edge s e 0 12 unsigned
edge e r 0 10 signed
output r2 8
edge k r2 0 8 signed
)";
  const Graph g = parse_graph(text);
  EXPECT_TRUE(g.validate().empty());
  bool found_shl = false, found_ext = false;
  for (const auto& n : g.nodes()) {
    if (n.kind == OpKind::Shl) {
      found_shl = true;
      EXPECT_EQ(n.shift, 3);
    }
    if (n.kind == OpKind::Extension) {
      found_ext = true;
      EXPECT_EQ(n.ext_sign, Sign::Signed);
    }
    if (n.kind == OpKind::Const) {
      EXPECT_EQ(n.value.to_int64(), -3);
    }
  }
  EXPECT_TRUE(found_shl);
  EXPECT_TRUE(found_ext);
}

TEST(Io, ErrorsCarryLineNumbers) {
  auto expect_throw = [](const std::string& text, const char* frag) {
    try {
      parse_graph(text);
      FAIL() << "expected parse failure for: " << frag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(frag), std::string::npos)
          << e.what();
    }
  };
  expect_throw("input a 8\n", "dfg v1");
  expect_throw("dfg v1\nbogus x\n", "unknown directive");
  expect_throw("dfg v1\ninput a 0\n", "width must be positive");
  expect_throw("dfg v1\ninput a 8\ninput a 8\n", "duplicate node");
  expect_throw("dfg v1\nnode t add 8\nedge q t 0 8 signed\n", "unknown node");
  expect_throw("dfg v1\ninput a 8\nnode t neg 8\nedge a t 1 8 signed\n",
               "port out of range");
  expect_throw(
      "dfg v1\ninput a 8\nnode t neg 8\nedge a t 0 8 signed\n"
      "edge a t 0 8 signed\n",
      "port already connected");
  expect_throw("dfg v1\nnode s shl 8\n", "shift amount");
  expect_throw("dfg v1\ninput a 8\nnode t add 8\nedge a t 0 8 signed\n",
               "graph invalid");
  expect_throw("", "empty input");
  // Numeric fields are whole, in-range integers: partial parses, non-numbers
  // and overflow never surface as a bare stoi message or std::out_of_range.
  expect_throw("dfg v1\ninput a 99999999999\n",
               "line 2: width '99999999999' out of range");
  expect_throw("dfg v1\ninput a abc\n", "line 2: width 'abc' not an integer");
  expect_throw("dfg v1\ninput a 8x\n", "line 2: width '8x' not an integer");
  expect_throw("dfg v1\nconst k 8 12345678901234567890123\n",
               "line 2: value '12345678901234567890123' out of range");
  expect_throw("dfg v1\nnode s shl 8 4294967296\n",
               "line 2: shift '4294967296' out of range");
  expect_throw("dfg v1\ninput a 8\nnode t neg 8\nedge a t 0x 8 signed\n",
               "line 4: port '0x' not an integer");
  // Widths and shift amounts past dfg::kMaxWidth are located errors too.
  expect_throw("dfg v1\ninput a 2000000000\n",
               "line 2: width 2000000000 exceeds the limit of 1024 bits");
  expect_throw("dfg v1\noutput y 1025\n",
               "line 2: width 1025 exceeds the limit of 1024 bits");
  expect_throw("dfg v1\nconst k 4096 3\n",
               "line 2: width 4096 exceeds the limit of 1024 bits");
  expect_throw("dfg v1\nnode t add 1025\n",
               "line 2: width 1025 exceeds the limit of 1024 bits");
  expect_throw("dfg v1\ninput a 8\nnode s shl 8 2147483647\n",
               "line 3: shift 2147483647 exceeds the limit of 1024 bits");
  expect_throw("dfg v1\ninput a 8\nnode t neg 8\nedge a t 0 1025 signed\n",
               "line 4: width 1025 exceeds the limit of 1024 bits");
}

TEST(Io, RoundTripPreservesFunction) {
  for (const auto& tc : designs::all_testcases()) {
    const std::string text = to_text(tc.graph);
    const Graph back = parse_graph(text);
    EXPECT_TRUE(back.validate().empty()) << tc.name;
    Rng rng(55);
    std::string why;
    EXPECT_TRUE(equivalent_by_simulation(tc.graph, back, 16, rng, &why))
        << tc.name << ": " << why;
  }
}

TEST(Io, RoundTripFigures) {
  for (const Graph& g : {designs::figure1_g2(), designs::figure3_g5()}) {
    const Graph back = parse_graph(to_text(g));
    EXPECT_EQ(back.node_count(), g.node_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
    Rng rng(56);
    EXPECT_TRUE(equivalent_by_simulation(g, back, 16, rng));
  }
}

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, RandomGraphs) {
  Rng rng(GetParam());
  for (int t = 0; t < 6; ++t) {
    const Graph g = random_graph(rng);
    const Graph back = parse_graph(to_text(g));
    ASSERT_TRUE(back.validate().empty());
    EXPECT_EQ(back.node_count(), g.node_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
    Rng vr(GetParam() * 3 + t);
    std::string why;
    EXPECT_TRUE(equivalent_by_simulation(g, back, 16, vr, &why)) << why;
    // Double round-trip is a fixpoint.
    EXPECT_EQ(to_text(back), to_text(parse_graph(to_text(back))));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip,
                         ::testing::Values(111, 112, 113, 114));

}  // namespace
}  // namespace dpmerge::dfg
