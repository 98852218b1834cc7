#include "dpmerge/dfg/eval.h"

#include <gtest/gtest.h>

#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/random_graph.h"
#include "dfg_oracle.h"

namespace dpmerge::dfg {
namespace {

using oracle::equivalent_by_simulation;

// Helper: run a single-output graph on int64 inputs, return the output as
// int64 (signed interpretation).
std::int64_t run1(const Graph& g, std::vector<std::int64_t> ins) {
  Evaluator ev(g);
  std::vector<BitVector> stim;
  const auto inputs = g.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    stim.push_back(BitVector::from_int(g.node(inputs[i]).width, ins[i]));
  }
  return ev.run_outputs(stim).at(0).to_int64();
}

TEST(Evaluator, AddTruncatesToNodeWidth) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s = b.add(8, {a}, {c});
  b.output("r", 8, {s});
  EXPECT_EQ(run1(g, {100, 100}), static_cast<std::int8_t>(200));
}

TEST(Evaluator, SignedExtensionOnEdges) {
  // 4-bit inputs sign-extended into a 9-bit adder: exact signed sum.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto s = b.add(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
  b.output("r", 9, {s});
  EXPECT_EQ(run1(g, {-8, -8}), -16);
  EXPECT_EQ(run1(g, {7, 7}), 14);
}

TEST(Evaluator, UnsignedExtensionOnEdges) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto s = b.add(9, {a, 9, Sign::Unsigned}, {c, 9, Sign::Unsigned});
  b.output("r", 9, {s});
  // -1 as a 4-bit pattern is 15 when zero-extended.
  EXPECT_EQ(run1(g, {-1, -1}), 30);
}

TEST(Evaluator, TruncateThenSignExtend) {
  // The Figure 1 bottleneck in miniature: a 9-bit sum truncated to 7 bits on
  // the edge, then sign-extended to 9 bits at the consumer.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto e = b.input("e", 8);
  const auto n1 = b.add(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
  const auto n3 = b.add(9, {n1, 7, Sign::Signed}, {e, 9, Sign::Signed});
  b.output("r", 9, {n3});
  // a + c = 80: fits 8 bits, but truncation to 7 bits gives 80 - 128 = -48
  // after sign extension. r = -48 + 1 = -47.
  EXPECT_EQ(run1(g, {40, 40, 1}), -47);
  // Within 7-bit range nothing is lost: 20 + 20 + 1 = 41.
  EXPECT_EQ(run1(g, {10, 10, 1}), 21);
}

TEST(Evaluator, SubAndNeg) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto d = b.sub(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
  const auto n = b.neg(10, {d, 10, Sign::Signed});
  b.output("r", 10, {n});
  EXPECT_EQ(run1(g, {3, 10}), 7);
  EXPECT_EQ(run1(g, {-100, 100}), 200);
}

TEST(Evaluator, MulSignedOperands) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto m = b.mul(8, {a, 8, Sign::Signed}, {c, 8, Sign::Signed});
  b.output("r", 8, {m});
  EXPECT_EQ(run1(g, {-8, 7}), -56);
  EXPECT_EQ(run1(g, {-8, -8}), 64);
}

TEST(Evaluator, MulUnsignedOperands) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 4);
  const auto m = b.mul(8, {a, 8, Sign::Unsigned}, {c, 8, Sign::Unsigned});
  b.output("r", 8, {m});
  EXPECT_EQ(run1(g, {-1, -1}), static_cast<std::int64_t>(
                                   static_cast<std::int8_t>(15 * 15)));
}

TEST(Evaluator, ConstParticipates) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto k = b.constant(8, 5);
  const auto m = b.mul(12, {a, 12, Sign::Signed}, {k, 12, Sign::Signed});
  b.output("r", 12, {m});
  EXPECT_EQ(run1(g, {-7}), -35);
}

TEST(Evaluator, ExtensionNodeSemantics) {
  // Definition 5.5(i): widening extension governed by <w(N), t(N)>.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 4);
  const auto e = b.extension(9, Sign::Signed, {a});
  b.output("r", 9, {e});
  EXPECT_EQ(run1(g, {-3}), -3);

  // Definition 5.5(ii): truncating "extension".
  Graph g2;
  Builder b2(g2);
  const auto a2 = b2.input("a", 8);
  const auto e2 = b2.extension(3, Sign::Signed, {a2});
  b2.output("r", 3, {e2});
  EXPECT_EQ(run1(g2, {0b101101}), run1(g2, {0b101}));
}

TEST(Evaluator, OutputTruncation) {
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto s = b.add(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
  b.output("r", 5, {s, 5, Sign::Signed});
  EXPECT_EQ(run1(g, {9, 9}), -14);  // 18 mod 2^5, signed view
}

TEST(Evaluator, StimulusValidation) {
  const Graph g = [] {
    Graph g;
    Builder b(g);
    const auto a = b.input("a", 8);
    b.output("r", 8, {a});
    return g;
  }();
  Evaluator ev(g);
  EXPECT_THROW(ev.run({}), std::invalid_argument);
  EXPECT_THROW(ev.run({BitVector::from_uint(4, 1)}), std::invalid_argument);
}

TEST(Evaluator, EquivalenceDetectsDifference) {
  Graph g1;
  {
    Builder b(g1);
    const auto a = b.input("a", 8);
    b.output("r", 8, {a});
  }
  Graph g2;
  {
    Builder b(g2);
    const auto a = b.input("a", 8);
    const auto n = b.neg(8, {a});
    b.output("r", 8, {n});
  }
  Rng rng(1);
  std::string why;
  EXPECT_FALSE(equivalent_by_simulation(g1, g2, 8, rng, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Evaluator, EquivalenceToleratesNodeReordering) {
  // Same function, inputs declared in a different order.
  Graph g1;
  {
    Builder b(g1);
    const auto a = b.input("a", 8);
    const auto c = b.input("c", 8);
    const auto s = b.sub(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
    b.output("r", 9, {s});
  }
  Graph g2;
  {
    Builder b(g2);
    const auto c = b.input("c", 8);
    const auto a = b.input("a", 8);
    const auto s = b.sub(9, {a, 9, Sign::Signed}, {c, 9, Sign::Signed});
    b.output("r", 9, {s});
  }
  Rng rng(2);
  EXPECT_TRUE(equivalent_by_simulation(g1, g2, 16, rng));
}

TEST(Evaluator, RandomGraphsEvaluateDeterministically) {
  Rng rng(11);
  for (int t = 0; t < 10; ++t) {
    const Graph g = random_graph(rng);
    Evaluator ev(g);
    const auto stim = ev.random_inputs(rng);
    const auto r1 = ev.run(stim);
    const auto r2 = ev.run(stim);
    EXPECT_EQ(r1.size(), r2.size());
    for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r2[i]);
  }
}

}  // namespace
}  // namespace dpmerge::dfg
