#include "dpmerge/designs/kernels.h"

#include <gtest/gtest.h>

#include "dpmerge/dfg/eval.h"
#include "dpmerge/netlist/simplify.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "dpmerge/transform/const_fold.h"

namespace dpmerge::designs {
namespace {

TEST(Kernels, AllCompileAndValidate) {
  const auto ks = dsp_kernels();
  ASSERT_EQ(ks.size(), 6u);
  for (const auto& k : ks) {
    EXPECT_TRUE(k.graph.validate().empty()) << k.name;
    EXPECT_FALSE(k.graph.outputs().empty()) << k.name;
    EXPECT_FALSE(k.source.empty()) << k.name;
  }
}

std::map<std::string, std::int64_t> run_named(
    const dfg::Graph& g, const std::map<std::string, std::int64_t>& in) {
  dfg::Evaluator ev(g);
  std::vector<BitVector> stim;
  for (dfg::NodeId id : g.inputs()) {
    stim.push_back(
        BitVector::from_int(g.node(id).width, in.at(g.name(id))));
  }
  const auto outs = ev.run_outputs(stim);
  std::map<std::string, std::int64_t> r;
  const auto oids = g.outputs();
  for (std::size_t i = 0; i < oids.size(); ++i) {
    r[g.name(oids[i])] = outs[i].to_int64();
  }
  return r;
}

const Kernel& find(const std::vector<Kernel>& ks, const std::string& n) {
  for (const auto& k : ks) {
    if (k.name == n) return k;
  }
  throw std::runtime_error("kernel not found");
}

TEST(Kernels, Fir8ComputesDotProduct) {
  const auto ks = dsp_kernels();
  const auto& k = find(ks, "fir8");
  const int taps[8] = {1, 2, 7, 8, 8, 7, 2, 1};
  std::map<std::string, std::int64_t> in;
  std::int64_t expect = 0;
  for (int i = 0; i < 8; ++i) {
    const std::int64_t v = (i * 37 % 200) - 100;
    in[std::string("x").append(std::to_string(i))] = v;
    expect += taps[i] * v;
  }
  EXPECT_EQ(run_named(k.graph, in).at("y"), expect);
}

TEST(Kernels, ComplexMulMatchesFormula) {
  const auto ks = dsp_kernels();
  const auto& k = find(ks, "complex_mul");
  const std::map<std::string, std::int64_t> in{
      {"ar", -300}, {"ai", 123}, {"br", 401}, {"bi", -77}};
  const auto out = run_named(k.graph, in);
  EXPECT_EQ(out.at("re"), -300 * 401 - 123 * -77);
  EXPECT_EQ(out.at("im"), -300 * -77 + 123 * 401);
}

TEST(Kernels, Dct4IsOrthogonalish) {
  const auto ks = dsp_kernels();
  const auto& k = find(ks, "dct4");
  // A constant row has zero AC coefficients.
  const std::map<std::string, std::int64_t> in{
      {"s0", 55}, {"s1", 55}, {"s2", 55}, {"s3", 55}};
  const auto out = run_named(k.graph, in);
  EXPECT_EQ(out.at("c0"), 8 * 55 /* (4*55) << 1 */ / 1);
  EXPECT_EQ(out.at("c1"), 0);
  EXPECT_EQ(out.at("c2"), 0);
  EXPECT_EQ(out.at("c3"), 0);
}

TEST(Kernels, Checksum8Wraps) {
  const auto ks = dsp_kernels();
  const auto& k = find(ks, "checksum8");
  const std::map<std::string, std::int64_t> in{
      {"p0", 200}, {"p1", 201}, {"p2", 202}, {"p3", 203}};
  const auto out = run_named(k.graph, in);
  EXPECT_EQ(out.at("m") & 0xFF, (200 + 201 + 202 + 203 + 2) & 0xFF);
}

TEST(Kernels, AllFlowsAndFoldVerify) {
  for (const auto& k : dsp_kernels()) {
    for (auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                      synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(k.graph, flow);
      Rng rng(7);
      std::string why;
      ASSERT_TRUE(synth::verify_netlist(res.net, k.graph, 24, rng, &why))
          << k.name << " " << std::string(synth::to_string(flow)) << ": "
          << why;
    }
    const dfg::Graph folded = transform::fold_constants(k.graph);
    const auto res = synth::run_flow(folded, synth::Flow::NewMerge);
    const auto slim = netlist::simplify(res.net);
    Rng rng(8);
    std::string why;
    // Verify the simplified netlist against the ORIGINAL kernel.
    ASSERT_TRUE(synth::verify_netlist(slim, k.graph, 24, rng, &why))
        << k.name << ": " << why;
  }
}

TEST(Kernels, MergingReducesClustersEverywhere) {
  for (const auto& k : dsp_kernels()) {
    const auto none = synth::run_flow(k.graph, synth::Flow::NoMerge);
    const auto neu = synth::run_flow(k.graph, synth::Flow::NewMerge);
    EXPECT_LT(neu.partition.num_clusters(), none.partition.num_clusters())
        << k.name;
    // One cluster per output is the floor.
    EXPECT_GE(neu.partition.num_clusters(),
              static_cast<int>(k.graph.outputs().size()))
        << k.name;
  }
}

TEST(Kernels, StrengthReductionRemovesFirMultipliers) {
  const auto ks = dsp_kernels();
  const auto& k = find(ks, "fir8");
  const dfg::Graph folded = transform::fold_constants(k.graph);
  int muls_before = 0, muls_after = 0;
  for (const auto& n : k.graph.nodes()) muls_before += n.kind == dfg::OpKind::Mul;
  for (const auto& n : folded.nodes()) muls_after += n.kind == dfg::OpKind::Mul;
  // Coefficients 1/2/8 are powers of two; 7 = not. 2 taps with coeff 7
  // keep their multipliers.
  EXPECT_EQ(muls_before, 6);  // coefficients 2,7,8,8,7,2 (1s are wires)
  EXPECT_EQ(muls_after, 2);
}

}  // namespace
}  // namespace dpmerge::designs
