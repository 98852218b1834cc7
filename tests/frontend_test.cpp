#include "dpmerge/frontend/parser.h"

#include <gtest/gtest.h>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/formal/equiv.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"

namespace dpmerge::frontend {
namespace {

std::int64_t run1(const dfg::Graph& g,
                  const std::vector<std::int64_t>& ins) {
  dfg::Evaluator ev(g);
  std::vector<BitVector> stim;
  const auto inputs = g.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    stim.push_back(BitVector::from_int(g.node(inputs[i]).width, ins[i]));
  }
  return ev.run_outputs(stim).at(0).to_int64();
}

TEST(Frontend, SumOfProducts) {
  const auto res = compile(R"(
design sop
input a : s8
input b : s8
input c : s8
input d : s8
output y : s17 = a * b + c * d
)");
  EXPECT_EQ(res.name, "sop");
  EXPECT_TRUE(res.graph.validate().empty());
  EXPECT_EQ(run1(res.graph, {3, 4, 5, 6}), 42);
  EXPECT_EQ(run1(res.graph, {-3, 4, 5, -6}), -42);
}

TEST(Frontend, WidthInference) {
  const auto res = compile(R"(
input a : u4
input b : u4
output y : u9 = a + b
)");
  // The adder is max(4,4)+1 = 5 bits wide; the output edge zero-extends.
  int adders = 0;
  for (const auto& n : res.graph.nodes()) {
    if (n.kind == dfg::OpKind::Add) {
      ++adders;
      EXPECT_EQ(n.width, 5);
    }
  }
  EXPECT_EQ(adders, 1);
  EXPECT_EQ(run1(res.graph, {15, 15}), 30);
}

TEST(Frontend, SubtractionForcesSigned) {
  const auto res = compile(R"(
input a : u4
input b : u4
output y : s6 = a - b
)");
  EXPECT_EQ(run1(res.graph, {3, 12}), -9);
}

TEST(Frontend, ShiftAndLiteralCoefficients) {
  const auto res = compile(R"(
input x : s6
output y : s12 = (x << 3) + 5 * x
)");
  EXPECT_EQ(run1(res.graph, {-7}), -7 * 13);
  EXPECT_EQ(run1(res.graph, {31}), 31 * 13);
}

TEST(Frontend, UnaryMinusAndParens) {
  const auto res = compile(R"(
input a : s5
input b : s5
output y : s8 = -(a + b) - -a
)");
  EXPECT_EQ(run1(res.graph, {6, 9}), -9);
}

TEST(Frontend, DeclaredIntermediateTruncates) {
  // The paper's truncate-then-extend bottleneck, written in the language:
  // t keeps only 7 bits of a 9-bit sum, then widens again.
  const auto res = compile(R"(
input a : s8
input b : s8
input e : s8
let t : s7 = a + b
output r : s9 = t + e
)");
  // 40 + 40 = 80 truncated to 7 bits = -48; -48 + 1 = -47 (cf. eval_test).
  EXPECT_EQ(run1(res.graph, {40, 40, 1}), -47);
  EXPECT_EQ(run1(res.graph, {10, 10, 1}), 21);
}

TEST(Frontend, Comparisons) {
  const auto res = compile(R"(
input a : s6
input b : u6
output lt : u1 = a < b
)");
  EXPECT_EQ(run1(res.graph, {-3, 2}) & 1, 1);
  EXPECT_EQ(run1(res.graph, {5, 2}) & 1, 0);

  const auto eq = compile(R"(
input a : u6
input b : u6
output e : u1 = a == b
)");
  EXPECT_EQ(run1(eq.graph, {9, 9}) & 1, 1);
  EXPECT_EQ(run1(eq.graph, {9, 8}) & 1, 0);
}

TEST(Frontend, ErrorsHaveLocations) {
  auto expect_error = [](const char* src, const char* frag) {
    try {
      compile(src);
      FAIL() << "expected error: " << frag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(frag), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos);
    }
  };
  expect_error("input a : s8\noutput y : s9 = a + q\n", "unknown identifier");
  expect_error("input a : s8\ninput a : s8\noutput y : s8 = a\n",
               "redefinition");
  expect_error("input a : x8\noutput y : s8 = a\n", "bad type");
  expect_error("input a : s0\noutput y : s8 = a\n", "width must be positive");
  // Numbers too large for their field: located errors, not std::out_of_range.
  expect_error("input a : s99999999999\noutput y : s8 = a\n",
               "line 1:23: width out of range in 's99999999999'");
  expect_error("input a : u8\noutput y : u8 = a + 12345678901234567890123\n",
               "line 2:21: integer literal '12345678901234567890123' out of "
               "range");
  expect_error("input a : s8\noutput y = a\n", "must declare a type");
  expect_error("input a : s8\noutput y : s8 = a +\n", "expected an expression");
  expect_error("input a : s8\noutput y : s8 = a << b\n",
               "shift amount must be a literal");
  expect_error("input a : s8\n", "no outputs");
  expect_error("bogus a : s8\noutput y : s8 = a\n", "unknown statement");
}

TEST(Frontend, NestingPastTheLimitIsALocatedLimitError) {
  const auto nested = [](int depth, const char* open, const char* close) {
    std::string src = "input a : s8\noutput y : s8 = ";
    for (int i = 0; i < depth; ++i) src += open;
    src += "a";
    for (int i = 0; i < depth; ++i) src += close;
    return src + "\n";
  };
  EXPECT_NO_THROW(compile(nested(kMaxNestingDepth, "(", ")")));
  EXPECT_NO_THROW(compile(nested(kMaxNestingDepth, "-", "")));

  // One level too deep: the error points at the offending token.
  try {
    compile(nested(kMaxNestingDepth + 1, "(", ")"));
    FAIL() << "expected a nesting-limit error";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.rule(), "frontend.limit");
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 17 + kMaxNestingDepth);
    EXPECT_EQ(e.diagnostic().rule, "frontend.limit");
  }
  // Hostile depths stop at the limit instead of exhausting the stack.
  for (const char* op : {"(", "-", "-("}) {
    const std::string close = op[std::string(op).size() - 1] == '(' ? ")" : "";
    check::CheckReport rep;
    EXPECT_FALSE(compile_or_diagnose(nested(20000, op, close.c_str()), rep));
    EXPECT_EQ(rep.count_rule("frontend.limit"), 1) << op;
    EXPECT_EQ(rep.count_rule("frontend.parse"), 0) << op;
  }
}

TEST(Frontend, WidthsPastTheLimitAreLocatedLimitErrors) {
  // The widest legal signals still compile.
  EXPECT_NO_THROW(compile("input a : u1024\noutput y : u1024 = a\n"));
  EXPECT_NO_THROW(compile("input a : s8\noutput y : s8 = a << 1016\n"));

  // A t*t chain doubles the width each line: t8 would be 2048 bits.
  std::string chain = "input t0 : s8\n";
  for (int i = 1; i <= 3000; ++i) {
    const std::string p = std::string("t").append(std::to_string(i - 1));
    chain += "let t" + std::to_string(i) + " = " + p + " * " + p + "\n";
  }
  chain += "output y : s8 = t3000\n";

  struct Case {
    std::string source;
    int line;
    int column;
  };
  const Case cases[] = {
      {"input a : s8\noutput y : s16 = a << 2147483647\n", 2, 23},
      {"input a : s8\noutput y : s16 = a << 99999999999\n", 2, 23},
      {"input a : s8\noutput y : s16 = a << 1017\n", 2, 23},
      {"input a : s2000000000\noutput y : s8 = a\n", 1, 11},
      {chain, 9, 13},
      {"input a : u1024\noutput y : u8 = a + a\n", 2, 19},
      {"input a : u1024\noutput y : u8 = -a\n", 2, 17},
      {"input a : u1024\ninput b : s8\noutput y : u1 = a < b\n", 3, 19},
  };
  for (const Case& c : cases) {
    const std::string head = c.source.substr(0, 40);
    try {
      compile(c.source);
      ADD_FAILURE() << "expected a width-limit error: " << head;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.rule(), "frontend.limit") << head << ": " << e.what();
      EXPECT_EQ(e.line(), c.line) << head;
      EXPECT_EQ(e.column(), c.column) << head;
      EXPECT_NE(std::string(e.what()).find("exceeds the limit of 1024 bits"),
                std::string::npos)
          << e.what();
    }
    check::CheckReport rep;
    EXPECT_FALSE(compile_or_diagnose(c.source, rep));
    EXPECT_EQ(rep.count_rule("frontend.limit"), 1) << head;
  }
}

TEST(Frontend, CompiledDesignSynthesizesCorrectly) {
  const auto res = compile(R"(
design mac4
input x0 : s5
input x1 : s5
input x2 : s5
input x3 : s5
input h0 : s5
input h1 : s5
input h2 : s5
input h3 : s5
output y : s13 = x0 * h0 + x1 * h1 + x2 * h2 + x3 * h3
)");
  for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                    synth::Flow::NewMerge}) {
    const auto fr = synth::run_flow(res.graph, flow);
    Rng rng(400 + static_cast<int>(flow));
    std::string why;
    EXPECT_TRUE(synth::verify_netlist(fr.net, res.graph, 30, rng, &why))
        << why;
  }
  // The merged MAC is one cluster: four products + final adder tree.
  const auto fr = synth::run_flow(res.graph, synth::Flow::NewMerge);
  EXPECT_EQ(fr.partition.num_clusters(), 1);
}

TEST(Frontend, FormalProofOfCompiledTruncation) {
  // The declared-width intermediate compiles to an explicit Extension node;
  // prove the compiled design equals an equivalent hand-built DFG.
  const auto res = compile(R"(
input a : s8
input b : s8
let t : s7 = a + b
output r : s9 = t + a
)");
  dfg::Graph ref;
  {
    dfg::Builder bl(ref);
    const auto a = bl.input("a", 8);
    const auto b = bl.input("b", 8);
    const auto t = bl.add(9, dfg::Operand{a, 9, Sign::Signed},
                          dfg::Operand{b, 9, Sign::Signed});
    const auto tt = bl.extension(7, Sign::Signed, dfg::Operand{t, 9, Sign::Signed});
    const auto r = bl.add(10, dfg::Operand{tt, 10, Sign::Signed},
                          dfg::Operand{a, 10, Sign::Signed});
    bl.output("r", 9, dfg::Operand{r, 9, Sign::Signed});
  }
  const auto eq = formal::check_graph_vs_graph(res.graph, ref);
  EXPECT_TRUE(eq.equivalent()) << eq.detail;
}

}  // namespace
}  // namespace dpmerge::frontend
