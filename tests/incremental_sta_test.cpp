// Property tests for IncrementalSta: after arbitrary sequences of drive
// changes, arrivals, loads, the longest path and the critical path must
// match a from-scratch Sta::analyze; rebuild() restores the invariants
// after topology edits; and the optimizer's cross-check flag holds over a
// full optimization run.

#include "dpmerge/netlist/sta.h"

#include <gtest/gtest.h>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

using netlist::CellLibrary;
using netlist::CellType;
using netlist::GateId;
using netlist::IncrementalSta;
using netlist::NetId;
using netlist::Netlist;
using netlist::Signal;
using netlist::Sta;

void expect_matches_full(const Netlist& net, const IncrementalSta& ista,
                         const Sta& sta, const char* when) {
  const auto full = sta.analyze(net);
  EXPECT_NEAR(full.longest_path_ns, ista.longest_path_ns(), 1e-12) << when;
  const auto loads = sta.net_loads(net);
  for (int n = 0; n < net.net_count(); ++n) {
    const auto ni = static_cast<std::size_t>(n);
    ASSERT_NEAR(full.arrival[ni], ista.arrivals()[ni], 1e-12)
        << when << " net " << n;
    ASSERT_NEAR(loads[ni], ista.load(NetId{n}), 1e-12) << when << " net " << n;
  }
  EXPECT_EQ(full.critical_path, ista.critical_path()) << when;
}

TEST(IncrementalSta, MatchesFullAnalyzeAfterRandomDriveChanges) {
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  Rng rng(31);
  for (const auto& tc : designs::all_testcases()) {
    auto flow = synth::run_flow(tc.graph, synth::Flow::NewMerge);
    IncrementalSta ista(flow.net, lib);
    expect_matches_full(flow.net, ista, sta, "initial");
    for (int step = 0; step < 120; ++step) {
      const int gi =
          static_cast<int>(rng.uniform(0, flow.net.gate_count() - 1));
      flow.net.mutable_gates()[static_cast<std::size_t>(gi)].drive =
          static_cast<std::uint8_t>(rng.uniform(0, netlist::kDriveLevels - 1));
      ista.update_drive_change(GateId{gi});
      if (step % 10 == 0 || step > 110) {
        expect_matches_full(flow.net, ista, sta, tc.name.c_str());
      }
    }
    expect_matches_full(flow.net, ista, sta, "final");
  }
}

TEST(IncrementalSta, RebuildRestoresInvariantsAfterTopologyEdit) {
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::OldMerge);
  IncrementalSta ista(flow.net, lib);

  // Buffer-split a multi-fanout net the way the optimizer does, then
  // rebuild.
  const auto loads = sta.net_loads(flow.net);
  NetId worst{-1};
  double worst_load = 0.0;
  for (int n = 2; n < flow.net.net_count(); ++n) {
    if (loads[static_cast<std::size_t>(n)] > worst_load) {
      worst_load = loads[static_cast<std::size_t>(n)];
      worst = NetId{n};
    }
  }
  ASSERT_TRUE(worst.valid());
  const NetId buffered = flow.net.buf(worst);
  const GateId buffer = flow.net.driver_id(buffered);
  ASSERT_EQ(flow.net.output(buffer), buffered);
  bool first = true;
  const auto gates = flow.net.mutable_gates();
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    if (GateId{static_cast<int>(gi)} == buffer) continue;
    for (NetId& in : gates[gi].pins) {  // unused slots hold NetId{}
      if (in == worst) {
        if (first) {
          first = false;  // keep one reader on the original net
        } else {
          in = buffered;
        }
      }
    }
  }
  ista.rebuild();
  expect_matches_full(flow.net, ista, sta, "after rebuild");
}

TEST(IncrementalSta, DownsizeSequencesStayConsistent) {
  // The area-recovery pattern: repeated down/up flips of the same gates.
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  auto flow = synth::run_flow(designs::make_d3(), synth::Flow::NewMerge);
  for (auto& g : flow.net.mutable_gates()) g.drive = netlist::kDriveLevels - 1;
  IncrementalSta ista(flow.net, lib);
  expect_matches_full(flow.net, ista, sta, "all X4");
  const auto gates = flow.net.mutable_gates();
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const GateId id{static_cast<int>(gi)};
    --gates[gi].drive;
    ista.update_drive_change(id);
    ++gates[gi].drive;
    ista.update_drive_change(id);
    --gates[gi].drive;
    ista.update_drive_change(id);
  }
  expect_matches_full(flow.net, ista, sta, "after recovery walk");
}

TEST(IncrementalSta, ReportMatchesAnalyzeFormat) {
  const auto& lib = CellLibrary::tsmc025();
  Sta sta(lib);
  auto flow = synth::run_flow(designs::make_d2(), synth::Flow::NewMerge);
  IncrementalSta ista(flow.net, lib);
  const auto full = sta.analyze(flow.net);
  const auto rep = std::move(ista).report();
  EXPECT_EQ(full.critical_path, rep.critical_path);
  EXPECT_NEAR(full.longest_path_ns, rep.longest_path_ns, 1e-12);
  ASSERT_EQ(full.arrival.size(), rep.arrival.size());
}

// The critical path is derived from the arrivals, not stored: at every
// gate it follows the latest input, and of equally late inputs the last
// pin. These cases pin that rule down for the full and the incremental
// timer.

std::vector<NetId> full_path(const Netlist& n) {
  return Sta(CellLibrary::tsmc025()).analyze(n).critical_path;
}

/// A netlist whose inputs are single-bit buses.
Netlist with_inputs(int count, std::vector<NetId>& pis) {
  Netlist n;
  for (int i = 0; i < count; ++i) {
    pis.push_back(n.new_net());
    n.add_input(std::string(1, static_cast<char>('a' + i)),
                Signal{{pis.back()}});
  }
  return n;
}

TEST(CriticalPathTies, EqualArrivalsTakeTheLastPin) {
  std::vector<NetId> pi;
  Netlist n = with_inputs(2, pi);
  const NetId x = n.inv(pi[0]);                        // gate 0
  const NetId y = n.inv(pi[1]);                        // gate 1
  const NetId z = n.add_gate(CellType::AND2, {y, x});  // x is the last pin
  n.add_output("z", Signal{{z}});
  const std::vector<NetId> via_x{pi[0], x, z}, via_y{pi[1], y, z};

  IncrementalSta ista(n, CellLibrary::tsmc025());
  ASSERT_EQ(ista.arrival(x), ista.arrival(y));
  EXPECT_EQ(full_path(n), via_x);
  EXPECT_EQ(ista.critical_path(), via_x);

  // x's driver gets faster: y alone is the latest.
  n.set_drive(GateId{0}, 1);
  ista.update_drive_change(GateId{0});
  EXPECT_EQ(full_path(n), via_y);
  EXPECT_EQ(ista.critical_path(), via_y);

  // Back to the tie: the last pin wins again.
  n.set_drive(GateId{0}, 0);
  ista.update_drive_change(GateId{0});
  ASSERT_EQ(ista.arrival(x), ista.arrival(y));
  EXPECT_EQ(full_path(n), via_x);
  EXPECT_EQ(ista.critical_path(), via_x);
}

TEST(CriticalPathTies, NetReadOnTwoPins) {
  std::vector<NetId> pi;
  Netlist n = with_inputs(1, pi);
  const NetId x = n.inv(pi[0]);                        // gate 0
  const NetId z = n.add_gate(CellType::AND2, {x, x});  // gate 1
  n.add_output("z", Signal{{z}});
  const std::vector<NetId> want{pi[0], x, z};

  IncrementalSta ista(n, CellLibrary::tsmc025());
  EXPECT_EQ(full_path(n), want);
  EXPECT_EQ(ista.critical_path(), want);

  // Both of z's pins load x: upsizing z moves x's arrival twice over.
  const double before = ista.arrival(x);
  n.set_drive(GateId{1}, 2);
  ista.update_drive_change(GateId{1});
  EXPECT_GT(ista.arrival(x), before);
  EXPECT_EQ(ista.arrival(z), Sta(CellLibrary::tsmc025())
                                 .analyze(n)
                                 .arrival[static_cast<std::size_t>(z.value)]);
  EXPECT_EQ(full_path(n), want);
  EXPECT_EQ(ista.critical_path(), want);
}

TEST(CriticalPathTies, AllPrimaryInputsTakeTheLastPin) {
  // Primary inputs arrive at 0, which ties with the start value 0.0: the
  // path still starts at the last pin's input, not at the gate.
  std::vector<NetId> pi;
  Netlist n = with_inputs(3, pi);
  const NetId z = n.add_gate(CellType::MUX2, {pi[0], pi[1], pi[2]});
  n.add_output("z", Signal{{z}});
  const std::vector<NetId> want{pi[2], z};

  IncrementalSta ista(n, CellLibrary::tsmc025());
  EXPECT_EQ(full_path(n), want);
  EXPECT_EQ(ista.critical_path(), want);

  n.set_drive(GateId{0}, 1);
  ista.update_drive_change(GateId{0});
  EXPECT_EQ(full_path(n), want);
  EXPECT_EQ(ista.critical_path(), want);
}

TEST(TimingOpt, CrossCheckedOptimizationRunsClean) {
  // With cross_check_sta on, every incremental update during a real
  // optimization run is verified against a full analyze; a divergence
  // throws and fails the test.
  const auto& lib = CellLibrary::tsmc025();
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::OldMerge);
  Sta sta(lib);
  opt::TimingOptimizer optimizer(lib);
  opt::TimingOptOptions o;
  o.target_ns = sta.analyze(flow.net).longest_path_ns * 0.9;
  o.max_moves = 300;
  o.cross_check_sta = true;
  const auto res = optimizer.optimize(flow.net, o);
  EXPECT_LE(res.final_ns, res.initial_ns);
}

}  // namespace
}  // namespace dpmerge
