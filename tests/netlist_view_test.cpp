// Flat netlist storage and its cached structural view: inline pin lists
// refuse a fourth pin; on netlists from all three flows and after random
// rewires the topological order is index order while the index-order bit
// holds and the cached Kahn-LIFO order otherwise, `kahn_order` equals the
// reference oracle either way, and the reader CSR lists every pin in gate
// order; the view is built only when a consumer needs it, once per
// structure version.

#include <gtest/gtest.h>

#include <stdexcept>

#include "dpmerge/check/check.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/synth/verify.h"
#include "netlist_oracle.h"

namespace dpmerge {
namespace {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinList;
using synth::Flow;

constexpr const char* kBuilds = "netlist.view_builds";

/// The view and both orders against the oracles and a direct scan of every
/// gate's pins.
void expect_view_matches(const Netlist& n, const char* when) {
  const auto& v = n.view();
  const auto kahn = netlist::oracle::topo_gates(n);
  ASSERT_EQ(netlist::kahn_order(n), kahn) << when;
  const auto order = n.topo_gates();
  const std::vector<GateId> walked(order.begin(), order.end());
  if (n.index_topological()) {
    ASSERT_TRUE(netlist::oracle::index_order_is_topological(n)) << when;
    ASSERT_TRUE(v.topo.empty() && v.topo_pos.empty()) << when;
    ASSERT_EQ(walked.size(), n.gates().size()) << when;
    for (std::size_t i = 0; i < walked.size(); ++i) {
      ASSERT_EQ(walked[i].value, static_cast<int>(i)) << when;
    }
  } else {
    ASSERT_EQ(v.topo, kahn) << when;
    ASSERT_EQ(walked, kahn) << when;
    ASSERT_EQ(v.topo_pos.size(), n.gates().size()) << when;
    for (std::size_t p = 0; p < v.topo.size(); ++p) {
      ASSERT_EQ(v.topo_pos[static_cast<std::size_t>(v.topo[p].value)],
                static_cast<std::int32_t>(p))
          << when;
    }
  }
  std::vector<std::vector<std::int32_t>> readers(
      static_cast<std::size_t>(n.net_count()));
  for (int gi = 0; gi < n.gate_count(); ++gi) {
    for (NetId in : n.gates()[static_cast<std::size_t>(gi)].inputs()) {
      readers[static_cast<std::size_t>(in.value)].push_back(gi);
    }
  }
  for (int net = 0; net < n.net_count(); ++net) {
    const auto span = v.readers_of(NetId{net});
    ASSERT_EQ(std::vector<std::int32_t>(span.begin(), span.end()),
              readers[static_cast<std::size_t>(net)])
        << when << " net " << net;
  }
}

TEST(NetlistView, PinListOverflowThrows) {
  const NetId a{2}, b{3}, c{4};
  PinList pins{a, b, c};
  EXPECT_EQ(pins.size(), 3u);
  EXPECT_THROW(pins.push_back(a), std::length_error);
  EXPECT_EQ(pins.size(), 3u);
  EXPECT_THROW((PinList{a, b, c, a}), std::length_error);

  Netlist n;
  const NetId x = n.new_net();
  n.add_gate(CellType::MUX2, {x, x, x});
  EXPECT_EQ(n.gates()[0].inputs().size(), 3u);
}

TEST(NetlistView, TopoMatchesOracleOnAllFlowsAndAfterRewires) {
  Rng rng(20261017);
  int cleared = 0;
  for (int round = 0; round < 4; ++round) {
    dfg::RandomGraphOptions opt;
    opt.num_inputs = 3 + round;
    opt.num_operators = 8 + 4 * round;
    const auto g = dfg::random_graph(rng, opt);
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      auto flow = synth::run_flow(g, f);
      Netlist& n = flow.net;
      ASSERT_TRUE(n.index_topological());
      expect_view_matches(n, "synthesised");
      if (n.gate_count() == 0) continue;
      // Random acyclic rewires: a pin moves to a constant, a primary input
      // or the output of a gate earlier in the current Kahn order, which
      // may come later in index order and clear the bit.
      for (int step = 0; step < 40; ++step) {
        const auto gi = static_cast<int>(rng.uniform(0, n.gate_count() - 1));
        const Gate& gate = n.gates()[static_cast<std::size_t>(gi)];
        const auto pin = static_cast<int>(rng.uniform(
            0, static_cast<std::int64_t>(gate.inputs().size()) - 1));
        const NetId to{static_cast<int>(rng.uniform(0, n.net_count() - 1))};
        const GateId drv = n.driver_id(to);
        std::vector<int> pos(n.gates().size());
        const auto kahn = netlist::kahn_order(n);
        for (std::size_t p = 0; p < kahn.size(); ++p) {
          pos[static_cast<std::size_t>(kahn[p].value)] = static_cast<int>(p);
        }
        if (drv.valid() && pos[static_cast<std::size_t>(drv.value)] >=
                       pos[static_cast<std::size_t>(gi)]) {
          continue;
        }
        n.set_input(GateId{gi}, pin, to);
        expect_view_matches(n, "after rewire");
        ASSERT_EQ(n.topo_gates().size(), n.gates().size());
      }
      if (!n.index_topological()) ++cleared;
    }
  }
  EXPECT_GT(cleared, 0) << "no rewire reached the Kahn path";
}

TEST(NetlistView, CycleLeavesGatesOutLikeTheOracle) {
  Netlist n;
  const NetId a = n.new_net();
  n.add_input("a", {{a}});
  const NetId x = n.inv(a);
  const NetId y = n.inv(x);
  const NetId z = n.and2(x, y);
  n.add_output("r", {{z}});
  n.set_input(GateId{0}, 0, y);  // inv0 <- inv1 <- inv0
  expect_view_matches(n, "cycle");
  EXPECT_LT(n.topo_gates().size(), n.gates().size());
  EXPECT_EQ(n.view().topo_pos[0], -1);
  EXPECT_EQ(check::verify(n).count_rule("net.comb-loop"), 1);
}

TEST(NetlistView, BuiltOncePerStructureVersion) {
  const auto g = designs::make_d1();
  const auto& lib = netlist::CellLibrary::tsmc025();
  check::PolicyScope policy(check::CheckPolicy::Off);
  obs::StatSink sink;
  obs::StatScope scope(&sink);

  // Flow, order, STA and verification all walk index order: no view.
  auto flow = synth::run_flow(g, Flow::NewMerge);
  std::int64_t in_flow = 0;
  for (const auto& stage : flow.report.stages) {
    const auto it = stage.stats.find(kBuilds);
    if (it != stage.stats.end()) in_flow += it->second;
  }
  Netlist& n = flow.net;
  ASSERT_TRUE(n.index_topological());
  (void)n.topo_gates();
  (void)netlist::Sta(lib).analyze(n);
  Rng rng(7);
  std::string why;
  EXPECT_TRUE(synth::verify_netlist(n, g, 64, rng, &why)) << why;
  EXPECT_TRUE(check::verify(n).ok());
  EXPECT_EQ(in_flow + sink.get(kBuilds), 0);

  n.set_drive(GateId{0}, 1);
  const NetId extra = n.add_gate(CellType::INV, {n.output(GateId{0})});
  (void)n.topo_gates();
  (void)netlist::Sta(lib).analyze(n);
  EXPECT_TRUE(n.index_topological());
  EXPECT_EQ(sink.get(kBuilds), 0);

  // A reader of the CSR builds it once per version.
  (void)n.view();
  (void)n.view();
  EXPECT_EQ(sink.get(kBuilds), 1);
  n.set_drive(GateId{0}, 2);
  (void)n.view();
  EXPECT_EQ(sink.get(kBuilds), 1);

  // A buffer move as the optimiser makes it: a new BUF, and an earlier
  // reader rewired behind it. The bit clears, and STA, the order and the
  // checker share one Kahn view for the new version.
  const NetId buffered = n.buf(n.output(GateId{0}));
  n.set_input(GateId{n.gate_count() - 2}, 0, buffered);
  EXPECT_FALSE(n.index_topological());
  (void)netlist::Sta(lib).analyze(n);
  (void)n.topo_gates();
  EXPECT_TRUE(check::verify(n).ok());
  EXPECT_TRUE(synth::verify_netlist(n, g, 64, rng, &why)) << why;
  EXPECT_EQ(sink.get(kBuilds), 2);
  EXPECT_TRUE(extra.valid());
}

}  // namespace
}  // namespace dpmerge
