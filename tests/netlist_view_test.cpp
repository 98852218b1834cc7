// Flat netlist storage and its cached structural view: inline pin lists
// refuse a fourth pin, the cached Kahn-LIFO order equals the reference
// oracle on netlists from all three flows and after random rewires, the
// reader CSR lists every pin in gate order, and the view is built exactly
// once per structure version.

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

/// The view against the oracle and a direct scan of every gate's pins.
void expect_view_matches(const Netlist& n, const char* when) {
  const auto& v = n.view();
  ASSERT_EQ(v.topo, netlist::oracle::topo_gates(n)) << when;
  ASSERT_EQ(v.topo_pos.size(), n.gates().size()) << when;
  for (std::size_t p = 0; p < v.topo.size(); ++p) {
    ASSERT_EQ(v.topo_pos[static_cast<std::size_t>(v.topo[p].value)],
              static_cast<std::int32_t>(p))
        << when;
  }
  std::vector<std::vector<std::int32_t>> readers(
      static_cast<std::size_t>(n.net_count()));
  for (const Gate& g : n.gates()) {
    for (NetId in : g.inputs) {
      readers[static_cast<std::size_t>(in.value)].push_back(g.id.value);
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
  EXPECT_THROW(n.mutable_gates()[0].inputs.push_back(x), std::length_error);
}

TEST(NetlistView, TopoMatchesOracleOnAllFlowsAndAfterRewires) {
  Rng rng(20261017);
  for (int round = 0; round < 4; ++round) {
    dfg::RandomGraphOptions opt;
    opt.num_inputs = 3 + round;
    opt.num_operators = 8 + 4 * round;
    const auto g = dfg::random_graph(rng, opt);
    for (Flow f : {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge}) {
      auto flow = synth::run_flow(g, f);
      Netlist& n = flow.net;
      expect_view_matches(n, "synthesised");
      ASSERT_EQ(n.topo_gates().size(), n.gates().size());
      if (n.gate_count() == 0) continue;
      // Random acyclic rewires: a pin moves to a constant, a primary input
      // or the output of a gate earlier in the current order.
      for (int step = 0; step < 40; ++step) {
        const auto gi = static_cast<int>(rng.uniform(0, n.gate_count() - 1));
        const Gate& gate = n.gates()[static_cast<std::size_t>(gi)];
        const auto pin = static_cast<int>(
            rng.uniform(0, static_cast<std::int64_t>(gate.inputs.size()) - 1));
        const NetId to{static_cast<int>(rng.uniform(0, n.net_count() - 1))};
        const Gate* drv = n.driver(to);
        const auto& pos = n.view().topo_pos;
        if (drv && pos[static_cast<std::size_t>(drv->id.value)] >=
                       pos[static_cast<std::size_t>(gi)]) {
          continue;
        }
        n.set_input(GateId{gi}, pin, to);
        expect_view_matches(n, "after rewire");
        ASSERT_EQ(n.topo_gates().size(), n.gates().size());
      }
    }
  }
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
  obs::StatSink sink;
  obs::StatScope scope(&sink);

  auto flow = synth::run_flow(g, Flow::NewMerge);
  std::int64_t in_flow = 0;
  for (const auto& stage : flow.report.stages) {
    const auto it = stage.stats.find(kBuilds);
    if (it != stage.stats.end()) in_flow += it->second;
  }
  Netlist& n = flow.net;
  (void)n.topo_gates();
  (void)netlist::Sta(lib).analyze(n);
  Rng rng(7);
  std::string why;
  EXPECT_TRUE(synth::verify_netlist(n, g, 64, rng, &why)) << why;
  EXPECT_EQ(in_flow + sink.get(kBuilds), 1);

  const std::int64_t before = sink.get(kBuilds);
  n.set_drive(GateId{0}, 1);
  (void)n.topo_gates();
  (void)netlist::Sta(lib).analyze(n);
  EXPECT_EQ(sink.get(kBuilds), before);

  const NetId extra = n.add_gate(CellType::INV, {n.gates()[0].output});
  (void)n.topo_gates();
  (void)n.topo_gates();
  EXPECT_EQ(sink.get(kBuilds), before + 1);

  n.set_input(GateId{n.gate_count() - 1}, 0, n.inputs()[0].signal.bit(0));
  (void)netlist::Sta(lib).analyze(n);
  (void)n.topo_gates();
  EXPECT_EQ(sink.get(kBuilds), before + 2);
  EXPECT_TRUE(extra.valid());
}

}  // namespace
}  // namespace dpmerge
