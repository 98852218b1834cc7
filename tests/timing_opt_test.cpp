#include "dpmerge/opt/timing_opt.h"

#include <gtest/gtest.h>

#include "dpmerge/check/check.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"

namespace dpmerge::opt {
namespace {

using netlist::CellLibrary;
using netlist::Sta;

TEST(TimingOpt, ImprovesDelayOnRealNetlist) {
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::NoMerge);
  Sta sta(CellLibrary::tsmc025());
  const double before = sta.analyze(flow.net).longest_path_ns;

  TimingOptimizer opt(CellLibrary::tsmc025());
  TimingOptOptions o;
  o.target_ns = 0.0;  // unreachable: drive as far as possible
  o.max_moves = 400;
  const auto res = opt.optimize(flow.net, o);
  EXPECT_LT(res.final_ns, before);
  EXPECT_GT(res.moves, 0);
  EXPECT_NEAR(res.initial_ns, before, 1e-9);
  EXPECT_GE(res.final_area, res.initial_area);  // speed costs area
}

TEST(TimingOpt, PreservesFunctionality) {
  const auto g = designs::make_d3();
  auto flow = synth::run_flow(g, synth::Flow::NewMerge);
  TimingOptimizer opt(CellLibrary::tsmc025());
  TimingOptOptions o;
  o.target_ns = 0.0;
  o.max_moves = 200;
  opt.optimize(flow.net, o);
  ASSERT_TRUE(check::verify(flow.net).ok());
  Rng rng(7);
  std::string why;
  EXPECT_TRUE(synth::verify_netlist(flow.net, g, 24, rng, &why)) << why;
}

TEST(TimingOpt, StopsWhenTargetMet) {
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::NewMerge);
  Sta sta(CellLibrary::tsmc025());
  const double before = sta.analyze(flow.net).longest_path_ns;
  TimingOptimizer opt(CellLibrary::tsmc025());
  TimingOptOptions o;
  o.target_ns = before * 1.5;  // already met
  const auto res = opt.optimize(flow.net, o);
  EXPECT_TRUE(res.met_target);
  EXPECT_EQ(res.moves, 0);
  EXPECT_EQ(res.initial_area, res.final_area);
}

TEST(TimingOpt, FasterStartNeedsLessWork) {
  // The Table 2 shape: the new-merge netlist (smaller, faster) needs fewer
  // moves than the old-merge netlist to reach the same target.
  const auto g = designs::make_d4();
  auto oldf = synth::run_flow(g, synth::Flow::OldMerge);
  auto newf = synth::run_flow(g, synth::Flow::NewMerge);
  Sta sta(CellLibrary::tsmc025());
  TimingOptimizer opt(CellLibrary::tsmc025());
  TimingOptOptions o;
  // A target between the two initial delays.
  o.target_ns = sta.analyze(newf.net).longest_path_ns * 0.98;
  o.max_moves = 2000;
  const auto r_old = opt.optimize(oldf.net, o);
  const auto r_new = opt.optimize(newf.net, o);
  EXPECT_LE(r_new.moves, r_old.moves);
  EXPECT_LE(r_new.final_ns, r_old.final_ns * 1.05);
}

TEST(TimingOpt, AreaRecoveryGivesBackSizing) {
  auto mk = [] { return synth::run_flow(designs::make_d2(), synth::Flow::NewMerge); };
  Sta sta(CellLibrary::tsmc025());
  TimingOptimizer opt(CellLibrary::tsmc025());
  auto f1 = mk();
  TimingOptOptions o;
  o.target_ns = sta.analyze(f1.net).longest_path_ns * 0.9;
  o.max_moves = 1000;
  o.recover_area = false;
  const auto r1 = opt.optimize(f1.net, o);

  auto f2 = mk();
  o.recover_area = true;
  const auto r2 = opt.optimize(f2.net, o);
  if (r1.met_target && r2.met_target) {
    EXPECT_LE(r2.final_area, r1.final_area);
    EXPECT_LE(r2.final_ns, o.target_ns);
  }
  // Recovery never un-meets the target.
  EXPECT_EQ(r2.met_target, r2.final_ns <= o.target_ns);
}

TEST(TimingOpt, ReportFormats) {
  TimingOptResult r;
  r.initial_ns = 5.0;
  r.final_ns = 4.0;
  r.moves = 3;
  r.met_target = true;
  const auto s = r.to_string();
  EXPECT_NE(s.find("5"), std::string::npos);
  EXPECT_NE(s.find("target met"), std::string::npos);
}

TEST(Sta, CriticalPathEndsAtWorstOutput) {
  auto flow = synth::run_flow(designs::make_d2(), synth::Flow::NewMerge);
  Sta sta(CellLibrary::tsmc025());
  const auto rep = sta.analyze(flow.net);
  ASSERT_FALSE(rep.critical_path.empty());
  const auto last = rep.critical_path.back();
  EXPECT_NEAR(rep.arrival[static_cast<std::size_t>(last.value)],
              rep.longest_path_ns, 1e-12);
  // The path is connected: each net's driver reads the previous net.
  for (std::size_t i = 1; i < rep.critical_path.size(); ++i) {
    const auto* drv = flow.net.driver(rep.critical_path[i]);
    ASSERT_NE(drv, nullptr);
    bool found = false;
    for (auto in : drv->inputs()) {
      if (in == rep.critical_path[i - 1]) found = true;
    }
    EXPECT_TRUE(found) << "path hop " << i;
  }
}

TEST(Sta, AreaAccumulatesVariants) {
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}};
  n.add_input("a", a);
  const auto out = n.inv(a.bit(0));
  n.add_output("r", netlist::Signal{{out}});
  Sta sta(CellLibrary::tsmc025());
  const double base = sta.area(n);
  n.mutable_gates()[0].drive = 2;  // X4
  EXPECT_GT(sta.area(n), base);
}

}  // namespace
}  // namespace dpmerge::opt
