// One DFG semantics, four algebras: on a seeded random-graph corpus, every
// node's value under `dfg::Evaluator` must equal its `formal::sym_eval_graph`
// word evaluated at the same stimulus, lie inside its `check::compute_absint`
// fact, and satisfy its information-content claim. Half of the corpus puts
// Extension nodes with t(N) != t(e) before every output, so each algebra is
// driven through Definition 5.5's delivery sign as well as Section 2.2's.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/check/absint_engine.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/formal/equiv.h"
#include "dpmerge/support/rng.h"
#include "dfg_oracle.h"

namespace dpmerge {
namespace {

using dfg::Graph;

/// Extension nodes whose own t(N) differs from the t(e) of their in-edge.
int sign_flipping_extensions(const Graph& g) {
  int count = 0;
  for (const dfg::Node& n : g.nodes()) {
    if (n.kind == dfg::OpKind::Extension &&
        g.edge(n.in[0]).sign != n.ext_sign) {
      ++count;
    }
  }
  return count;
}

/// Checks every node of `g` on `trials` random stimuli.
void expect_algebras_agree(const Graph& g, int trials, Rng& rng,
                           const std::string& what) {
  formal::Bdd m;
  const formal::SymbolicInputs in(m, g);
  const std::vector<formal::Word> words = formal::sym_eval_graph(m, g, in);
  const check::AbsintResult facts = check::compute_absint(g);
  const analysis::InfoAnalysis ia = analysis::compute_info_content(g);
  const dfg::Evaluator ev(g);
  const std::vector<dfg::NodeId> inputs = g.inputs();
  const auto num_inputs = static_cast<int>(inputs.size());

  for (int t = 0; t < trials; ++t) {
    const std::vector<BitVector> stimulus = ev.random_inputs(rng);
    const std::vector<BitVector> results = ev.run(stimulus);
    // Bit b of input i is BDD variable b * num_inputs + i.
    std::vector<bool> assignment;
    for (int i = 0; i < num_inputs; ++i) {
      const BitVector& v = stimulus[static_cast<std::size_t>(i)];
      for (int b = 0; b < v.width(); ++b) {
        const auto var = static_cast<std::size_t>(b * num_inputs + i);
        if (assignment.size() <= var) assignment.resize(var + 1, false);
        assignment[var] = v.bit(b);
      }
    }
    for (const dfg::Node& n : g.nodes()) {
      const auto idx = static_cast<std::size_t>(n.id.value);
      const BitVector& v = results[idx];
      const std::string where = what + " trial " + std::to_string(t) +
                                " node " + std::to_string(n.id.value) + " (" +
                                std::string(dfg::to_string(n.kind)) + ")";
      const formal::Word& w = words[idx];
      ASSERT_EQ(w.width(), v.width()) << where;
      for (int b = 0; b < v.width(); ++b) {
        EXPECT_EQ(m.eval(w.bits[static_cast<std::size_t>(b)], assignment),
                  v.bit(b))
            << where << " bit " << b << " value " << v.to_string();
      }
      EXPECT_TRUE(check::contains(facts.out(n.id), v))
          << where << " value " << v.to_string();
      const analysis::InfoContent claim = ia.out(n.id);
      EXPECT_TRUE(v.is_extension_of_low(claim.width, claim.sign))
          << where << " claim " << claim.to_string() << " value "
          << v.to_string();
    }
  }
}

class DfgSemanticsProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DfgSemanticsProperty, AlgebrasAgreeWithEvaluator) {
  // Five graphs per seed; multipliers kept narrow so every BDD stays small.
  dfg::RandomGraphOptions opt;
  opt.num_inputs = 3;
  opt.num_operators = 12;
  opt.max_width = 10;
  opt.mul_fraction = 0.1;
  opt.cmp_fraction = 0.12;
  int flipped_extensions = 0;
  for (std::uint64_t k = 0; k < 5; ++k) {
    const std::uint64_t seed = GetParam() * 100 + k;
    Rng rng(seed);
    const Graph g = dfg::random_graph(rng, opt);
    const Graph flipped = dfg::oracle::with_sign_flipping_extensions(g);
    flipped_extensions += sign_flipping_extensions(flipped);
    expect_algebras_agree(g, 8, rng, "seed " + std::to_string(seed));
    expect_algebras_agree(flipped, 8, rng,
                          "seed " + std::to_string(seed) + " flipped");
  }
  EXPECT_GT(flipped_extensions, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfgSemanticsProperty,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dpmerge
