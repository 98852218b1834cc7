// Seeded fuzz loop: 500 random DFGs must pass the IR verifier, survive every
// transform with the verifier still green, and produce information-content /
// required-precision results the abstract-interpretation lint cannot refute.
// A BDD-equivalence stage additionally proves, at small widths, that the
// old-merge and new-merge flows both synthesize netlists implementing the
// source graph (`ctest -L formal` collects it).

#include <gtest/gtest.h>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/analysis/required_precision.h"
#include "dpmerge/check/absint_engine.h"
#include "dpmerge/check/check.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/formal/equiv.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/transform/const_fold.h"
#include "dpmerge/transform/cse.h"
#include "dpmerge/transform/rebalance.h"
#include "dpmerge/transform/width_prune.h"

namespace dpmerge {
namespace {

using dfg::Graph;

constexpr int kSeeds = 500;

dfg::RandomGraphOptions fuzz_options(std::uint64_t seed) {
  dfg::RandomGraphOptions opt;
  // Vary the shape across the sweep so narrow, wide, comparator-heavy and
  // multiply-heavy graphs all appear.
  opt.num_operators = 4 + static_cast<int>(seed % 17);
  opt.max_width = 6 + static_cast<int>(seed % 23);
  opt.cmp_fraction = (seed % 3) ? 0.06 : 0.2;
  opt.mul_fraction = (seed % 2) ? 0.2 : 0.35;
  return opt;
}

TEST(CheckFuzz, RandomGraphsVerifyCleanThroughEveryTransform) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 2654435761u + 1);
    const Graph g = dfg::random_graph(rng, fuzz_options(seed));
    const auto base = check::verify(g);
    ASSERT_TRUE(base.ok()) << "seed " << seed << "\n" << base.to_text();

    const Graph folded = transform::fold_constants(g);
    const auto rf = check::verify(folded);
    EXPECT_TRUE(rf.ok()) << "fold, seed " << seed << "\n" << rf.to_text();

    const Graph shared = transform::share_common_subexpressions(g);
    const auto rs = check::verify(shared);
    EXPECT_TRUE(rs.ok()) << "cse, seed " << seed << "\n" << rs.to_text();

    const Graph balanced = transform::rebalance_clusters(g);
    const auto rb = check::verify(balanced);
    EXPECT_TRUE(rb.ok()) << "rebalance, seed " << seed << "\n" << rb.to_text();

    Graph pruned = g;
    transform::normalize_widths(pruned);
    const auto rp = check::verify(pruned);
    EXPECT_TRUE(rp.ok()) << "prune, seed " << seed << "\n" << rp.to_text();
  }
}

TEST(CheckFuzz, AnalysesSurviveTheSoundnessLint) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed * 0x9e3779b9u + 7);
    Graph g = dfg::random_graph(rng, fuzz_options(seed));
    transform::normalize_widths(g);

    const auto ia = analysis::compute_info_content(g);
    const auto rp = analysis::compute_required_precision(g);
    const auto lint = check::lint_absint(g, &ia, &rp);
    EXPECT_TRUE(lint.clean()) << "seed " << seed << "\n" << lint.to_text();
  }
}

// BDD-equivalence stage: both merge generations, proved (not simulated)
// against the source graph. Widths are kept small so each proof is cheap;
// a ResourceLimit verdict is a harness bug at these sizes, not a pass.
TEST(CheckFuzz, MergeFlowsFormallyEquivalentAtSmallWidths) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 41);
    dfg::RandomGraphOptions opt;
    opt.num_inputs = 3;
    opt.num_operators = 5 + static_cast<int>(seed % 6);
    opt.max_width = 4 + static_cast<int>(seed % 4);
    opt.mul_fraction = 0.1;  // keep multiplier BDDs small
    opt.cmp_fraction = 0.15;
    const Graph g = dfg::random_graph(rng, opt);
    for (auto flow : {synth::Flow::OldMerge, synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(g, flow);
      const auto r = formal::check_netlist_vs_graph(res.net, g);
      ASSERT_TRUE(r.proved())
          << "seed " << seed << " " << synth::to_string(flow);
      EXPECT_TRUE(r.equivalent())
          << "seed " << seed << " " << synth::to_string(flow) << ": "
          << r.detail;
    }
  }
}

TEST(CheckFuzz, TransformsRunCleanUnderParanoidBoundaries) {
  check::PolicyScope scope(check::CheckPolicy::Paranoid);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 1099511627791ull + 3);
    const Graph g = dfg::random_graph(rng, fuzz_options(seed));
    // Any CheckFailure escaping here is a transform producing a broken
    // graph (or a checker false positive) — both are bugs.
    transform::fold_constants(g);
    transform::share_common_subexpressions(g);
    transform::rebalance_clusters(g);
    Graph pruned = g;
    transform::normalize_widths(pruned);
  }
}

}  // namespace
}  // namespace dpmerge
