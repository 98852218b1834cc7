// Scalable workload generators (designs/scale.h): structural validity,
// determinism, node-count scaling, and the connected-components utility
// the partition-parallel driver shards on.

#include <gtest/gtest.h>

#include "dpmerge/designs/scale.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/support/rng.h"

namespace dpmerge {
namespace {

using dfg::Graph;

TEST(ScaleDesignsTest, GeneratorsProduceValidGraphs) {
  EXPECT_TRUE(designs::layered_network(10, 12, 16).validate().empty());
  EXPECT_TRUE(designs::fir(16, 12).validate().empty());
  EXPECT_TRUE(designs::dct_bank(5, 12).validate().empty());
  EXPECT_TRUE(designs::matmul(4, 12).validate().empty());
}

TEST(ScaleDesignsTest, GeneratorsAreDeterministic) {
  const Graph a = designs::layered_network(8, 10, 16, 99);
  const Graph b = designs::layered_network(8, 10, 16, 99);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.to_dot(), b.to_dot());
  const Graph f1 = designs::fir(32, 10);
  const Graph f2 = designs::fir(32, 10);
  EXPECT_EQ(f1.to_dot(), f2.to_dot());
}

TEST(ScaleDesignsTest, NodeCountsScaleWithParameters) {
  // layered: layers * layer_width operators plus inputs/outputs.
  const Graph lay = designs::layered_network(20, 30, 16);
  EXPECT_GE(lay.node_count(), 20 * 30);
  // fir(t): t inputs + t consts + t muls + (t-1) adds + 1 output.
  const Graph f = designs::fir(64, 12);
  EXPECT_EQ(f.node_count(), 64 * 4);
  // matmul(n): 2n^2 inputs + n^3 muls + n^2 (n-1) adds + n^2 outputs.
  const int n = 5;
  const Graph m = designs::matmul(n, 12);
  EXPECT_EQ(m.node_count(), 2 * n * n + n * n * n + n * n * (n - 1) + n * n);
}

TEST(ScaleDesignsTest, SuiteLandsNearTarget) {
  for (const int target : {1000, 10000}) {
    const auto suite = designs::scale_suite(target);
    ASSERT_EQ(suite.size(), 4u);
    for (const auto& d : suite) {
      EXPECT_TRUE(d.graph.validate().empty()) << d.name;
      // Within a factor of two of the target (parameter rounding).
      EXPECT_GE(d.graph.node_count(), target / 2) << d.name;
      EXPECT_LE(d.graph.node_count(), target * 2) << d.name;
      // Name embeds the realised node count.
      EXPECT_NE(d.name.find(std::to_string(d.graph.node_count())),
                std::string::npos)
          << d.name;
    }
  }
}

TEST(ScaleDesignsTest, FirComputesAWeightedSum) {
  // Functional sanity: fir output with one-hot stimulus equals the (sign-
  // extended) coefficient of the hot tap, so each tap is really wired to
  // its own coefficient.
  const Graph f = designs::fir(4, 8);
  dfg::Evaluator ev(f);
  const auto ins = f.inputs();
  ASSERT_EQ(ins.size(), 4u);
  std::vector<BitVector> stim;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    stim.push_back(BitVector::from_int(8, 0));
  }
  const auto zero_out = ev.run_outputs(stim);
  ASSERT_EQ(zero_out.size(), 1u);
  EXPECT_EQ(zero_out[0].to_int64(), 0);
  std::int64_t sum = 0;
  for (std::size_t hot = 0; hot < ins.size(); ++hot) {
    auto s = stim;
    s[hot] = BitVector::from_int(8, 1);
    const auto out = ev.run_outputs(s);
    sum += out[0].to_int64();
    EXPECT_NE(out[0].to_int64(), 0) << "tap " << hot << " has a zero coeff";
  }
  // All-ones stimulus equals the sum of the per-tap responses (linearity).
  auto all = stim;
  for (auto& v : all) v = BitVector::from_int(8, 1);
  EXPECT_EQ(ev.run_outputs(all)[0].to_int64(), sum);
}

}  // namespace
}  // namespace dpmerge
