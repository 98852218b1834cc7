// Property tests for IncrementalSta: after arbitrary sequences of drive
// changes, undone trials and buffer insertions, arrivals, loads, the
// longest path and the critical path must match a from-scratch timer bit
// for bit, the timer's own order must stay topological and its reader
// lists must match a fresh CSR; rebuild() restores the invariants after
// topology edits; and the optimizer's cross-check flag holds over full
// optimization runs.

#include "dpmerge/netlist/sta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

using netlist::CellLibrary;
using netlist::CellType;
using netlist::Gate;
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

// ---- The timer's owned order, reader lists and undo log ----

/// Everything a timer reports, for bit-for-bit comparisons.
struct TimerState {
  std::vector<double> arrival;
  std::vector<double> load;
  double longest = 0.0;
  std::vector<NetId> path;
  bool operator==(const TimerState&) const = default;
};

TimerState state_of(const Netlist& net, const IncrementalSta& ista) {
  TimerState s{ista.arrivals(), {}, ista.longest_path_ns(),
               ista.critical_path()};
  for (int n = 0; n < net.net_count(); ++n) {
    s.load.push_back(ista.load(NetId{n}));
  }
  return s;
}

/// `ista` against a timer built afresh on `net` (`==`, not a tolerance),
/// its reader lists against a fresh CSR, and its order: dense, with every
/// gate after the drivers of its inputs.
void expect_fresh(const Netlist& net, IncrementalSta& ista,
                  const std::string& when) {
  const IncrementalSta fresh(net, CellLibrary::tsmc025());
  ASSERT_TRUE(state_of(net, ista) == state_of(net, fresh)) << when;

  std::vector<std::int32_t> begin, readers;
  netlist::build_reader_csr(net, begin, readers);
  for (int n = 0; n < net.net_count(); ++n) {
    const auto got = ista.readers(NetId{n});
    const auto ni = static_cast<std::size_t>(n);
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           readers.begin() + begin[ni],
                           readers.begin() + begin[ni + 1]))
        << when << " readers of net " << n;
  }

  std::vector<char> taken(static_cast<std::size_t>(net.gate_count()), 0);
  for (int gi = 0; gi < net.gate_count(); ++gi) {
    const std::int32_t p = ista.order_position(GateId{gi});
    ASSERT_TRUE(p >= 0 && p < net.gate_count()) << when << " gate " << gi;
    ASSERT_FALSE(taken[static_cast<std::size_t>(p)]++) << when << " pos " << p;
    for (NetId in : net.gates()[static_cast<std::size_t>(gi)].inputs()) {
      if (const GateId d = net.driver_id(in); d.valid()) {
        ASSERT_LT(ista.order_position(d), p) << when << " gate " << gi;
      }
    }
  }
}

/// Random drive changes (a third of them undone as a rejected trial) and
/// buffer insertions rewired the optimiser's way: `w`'s readers split into
/// gates kept on `w` and gates moved, all their `w` pins, behind a buffer.
void random_walk(Netlist& net, std::uint64_t seed, int steps,
                 const std::string& what) {
  const auto& lib = CellLibrary::tsmc025();
  IncrementalSta ista(net, lib);
  Rng rng(seed);
  int buffers = 0, undos = 0;
  for (int step = 0; step < steps; ++step) {
    const std::string when = what + " step " + std::to_string(step);
    const auto kind = rng.uniform(0, 3);
    if (kind < 3) {
      const GateId g{static_cast<int>(rng.uniform(0, net.gate_count() - 1))};
      const int old_drive =
          net.gates()[static_cast<std::size_t>(g.value)].drive;
      const TimerState before = state_of(net, ista);
      net.set_drive(g, static_cast<int>(
                           rng.uniform(0, netlist::kDriveLevels - 1)));
      ista.update_drive_change(g);
      if (kind == 0) {
        expect_fresh(net, ista, when + " trial");
        net.set_drive(g, old_drive);
        ista.undo_last_update();
        ++undos;
        ASSERT_TRUE(state_of(net, ista) == before) << when << " undo";
      }
    } else {
      const NetId w{static_cast<int>(rng.uniform(2, net.net_count() - 1))};
      const auto span = ista.readers(w);
      const std::vector<std::int32_t> readers(span.begin(), span.end());
      const NetId b = net.buf(w);
      for (std::size_t i = 0; i < readers.size(); ++i) {
        const std::int32_t gi = readers[i];
        if ((i > 0 && readers[i - 1] == gi) || rng.chance(0.3)) continue;
        const Gate& g = net.gates()[static_cast<std::size_t>(gi)];
        for (std::size_t pin = 0; pin < g.inputs().size(); ++pin) {
          if (g.inputs()[pin] == w) {
            net.set_input(GateId{gi}, static_cast<int>(pin), b);
          }
        }
      }
      ista.update_buffer_insertion(GateId{net.gate_count() - 1});
      ++buffers;
    }
    expect_fresh(net, ista, when);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(buffers, 0) << what;
  EXPECT_GT(undos, 0) << what;
}

/// The paper designs and the DSP kernels through two flows, each on its
/// index-order netlist and on a Kahn-order copy.
std::vector<std::pair<std::string, Netlist>> walk_netlists() {
  std::vector<std::pair<std::string, dfg::Graph>> graphs;
  for (auto& t : designs::all_testcases()) graphs.emplace_back(t.name, t.graph);
  for (auto& k : designs::dsp_kernels()) graphs.emplace_back(k.name, k.graph);
  std::vector<std::pair<std::string, Netlist>> out;
  for (const auto& [name, g] : graphs) {
    for (synth::Flow f : {synth::Flow::OldMerge, synth::Flow::NewMerge}) {
      const std::string what = name + " " + std::string(synth::to_string(f));
      Netlist net = synth::run_flow(g, f).net;
      Netlist kahn = net;
      (void)kahn.mutable_gates();  // clears the index-order bit
      out.emplace_back(what + " index", std::move(net));
      out.emplace_back(what + " kahn", std::move(kahn));
    }
  }
  return out;
}

TEST(IncrementalSta, RandomWalksMatchAFreshTimerBitForBit) {
  std::uint64_t seed = 1;
  for (auto& [what, net] : walk_netlists()) {
    random_walk(net, seed++, 30, what);
    if (HasFatalFailure()) return;
  }
}

TEST(IncrementalSta, UndoIsOnlyValidAfterADriveChange) {
  auto flow = synth::run_flow(designs::make_d1(), synth::Flow::NewMerge);
  IncrementalSta ista(flow.net, CellLibrary::tsmc025());
  EXPECT_THROW(ista.undo_last_update(), std::logic_error);
  flow.net.set_drive(GateId{0}, 1);
  ista.update_drive_change(GateId{0});
  flow.net.set_drive(GateId{0}, 0);
  ista.undo_last_update();
  EXPECT_THROW(ista.undo_last_update(), std::logic_error);
}

TEST(IncrementalSta, BufferAsTheFirstUpdateBuildsFromTheEditedNetlist) {
  // No update before the buffer: the timer's structure is built from the
  // netlist as edited, so nothing is patched twice.
  auto flow = synth::run_flow(designs::make_d2(), synth::Flow::OldMerge);
  Netlist& net = flow.net;
  IncrementalSta ista(net, CellLibrary::tsmc025());
  const NetId w = net.output(GateId{0});
  const NetId b = net.buf(w);
  std::vector<std::int32_t> begin, readers;
  netlist::build_reader_csr(net, begin, readers);
  const auto wi = static_cast<std::size_t>(w.value);
  const std::vector<std::int32_t> moved(readers.begin() + begin[wi],
                                        readers.begin() + begin[wi + 1]);
  for (std::int32_t gi : moved) {
    if (gi == net.gate_count() - 1) continue;  // the buffer itself
    const Gate& g = net.gates()[static_cast<std::size_t>(gi)];
    for (std::size_t pin = 0; pin < g.inputs().size(); ++pin) {
      if (g.inputs()[pin] == w) {
        net.set_input(GateId{gi}, static_cast<int>(pin), b);
      }
    }
  }
  ista.update_buffer_insertion(GateId{net.gate_count() - 1});
  expect_fresh(net, ista, "buffer first");
}

TEST(IncrementalSta, BufferMoveKeepsOneEntryPerPin) {
  // x is read by an INV, by both pins of an AND2 and by a MUX2's select;
  // buffer it twice, moving first the AND2 and then the rest.
  std::vector<NetId> pi;
  Netlist n = with_inputs(2, pi);
  const NetId x = n.inv(pi[0]);                              // gate 0
  const NetId y = n.inv(x);                                  // gate 1
  const NetId z = n.add_gate(CellType::AND2, {x, x});        // gate 2
  const NetId m = n.add_gate(CellType::MUX2, {y, pi[1], x});  // gate 3
  n.add_output("z", Signal{{z}});
  n.add_output("m", Signal{{m}});
  IncrementalSta ista(n, CellLibrary::tsmc025());
  n.set_drive(GateId{2}, 1);
  ista.update_drive_change(GateId{2});  // builds the timer's structure
  expect_fresh(n, ista, "before");

  const NetId b1 = n.buf(x);
  n.set_input(GateId{2}, 0, b1);
  n.set_input(GateId{2}, 1, b1);
  ista.update_buffer_insertion(GateId{n.gate_count() - 1});
  expect_fresh(n, ista, "AND2 moved");

  const NetId b2 = n.buf(x);
  n.set_input(GateId{1}, 0, b2);
  n.set_input(GateId{3}, 2, b2);
  ista.update_buffer_insertion(GateId{n.gate_count() - 1});
  expect_fresh(n, ista, "INV and MUX2 moved");
  const std::vector<std::int32_t> want{1, 3};
  const auto got = ista.readers(b2);
  EXPECT_EQ(std::vector<std::int32_t>(got.begin(), got.end()), want);
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

TEST(TimingOpt, CrossCheckedBufferMovesRunClean) {
  // Table 2's D4 old-merge cell, the one with the most buffer moves: every
  // buffer insertion is a cone update, cross-checked like every other.
  const auto& lib = CellLibrary::tsmc025();
  const auto d4 = designs::make_d4();
  auto flow = synth::run_flow(d4, synth::Flow::OldMerge);
  opt::TimingOptOptions o;
  o.target_ns =
      Sta(lib).analyze(synth::run_flow(d4, synth::Flow::NewMerge).net)
          .longest_path_ns *
      0.93;
  o.max_moves = 5000;
  o.cross_check_sta = true;
  obs::StatSink sink;
  {
    obs::StatScope scope(&sink);
    opt::TimingOptimizer(lib).optimize(flow.net, o);
  }
  EXPECT_EQ(sink.get("opt.buffer.accept") + sink.get("opt.buffer.reject"), 39);
}

}  // namespace
}  // namespace dpmerge
