// Gate-index order as the netlist's topological order: every synthesis
// flow leaves the index-order bit set (and the linear oracle agrees), each
// mutator follows its rule for the bit, and timing, the critical path,
// packed simulation and the Table 2 optimiser give bit-identical results
// whether they walk index order or the Kahn order (forced on a copy through
// `mutable_gates()`).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dpmerge/check/check.h"
#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/scale.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/netlist/packed_sim.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/support/rng.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/transform/const_fold.h"
#include "netlist_oracle.h"

namespace dpmerge {
namespace {

using netlist::CellLibrary;
using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PackedSimulator;
using netlist::Sta;
using netlist::oracle::index_order_is_topological;
using synth::Flow;

constexpr Flow kFlows[] = {Flow::NoMerge, Flow::OldMerge, Flow::NewMerge};

struct Design {
  std::string name;
  dfg::Graph graph;
};

/// D1-D5 and the six DSP kernels: the paper's flows.
std::vector<Design> paper_designs() {
  std::vector<Design> out;
  for (auto& t : designs::all_testcases()) {
    out.push_back({t.name, std::move(t.graph)});
  }
  for (auto& k : designs::dsp_kernels()) {
    out.push_back({k.name, std::move(k.graph)});
  }
  return out;
}

/// A copy of `n` that walks the Kahn order instead of index order.
Netlist kahn_copy(const Netlist& n) {
  Netlist copy = n;
  (void)copy.mutable_gates();
  return copy;
}

std::vector<std::vector<BitVector>> stimuli(const Netlist& n, Rng& rng) {
  std::vector<std::vector<BitVector>> out(PackedSimulator::kLanes);
  for (auto& lane : out) {
    for (const auto& bus : n.inputs()) {
      lane.push_back(rng.bits(bus.signal.width()));
    }
  }
  return out;
}

/// Arrivals, the critical path and 64 lanes of simulation agree bit for
/// bit between `n` and its Kahn copy.
void expect_orders_agree(const Netlist& n, const std::string& what) {
  const Netlist k = kahn_copy(n);
  ASSERT_FALSE(k.index_topological()) << what;
  const Sta sta(CellLibrary::tsmc025());
  const auto a = sta.analyze(n);
  const auto b = sta.analyze(k);
  EXPECT_EQ(a.longest_path_ns, b.longest_path_ns) << what;
  EXPECT_EQ(a.arrival, b.arrival) << what;
  EXPECT_EQ(a.critical_path, b.critical_path) << what;
  Rng rng(5);
  const auto stim = stimuli(n, rng);
  EXPECT_EQ(PackedSimulator(n).run_batch(stim),
            PackedSimulator(k).run_batch(stim))
      << what;
}

TEST(IndexOrder, SetAfterEveryFlow) {
  auto check_flows = [](const dfg::Graph& g, const synth::SynthOptions& opt,
                        const std::string& name) {
    for (Flow f : kFlows) {
      const auto flow = synth::run_flow(g, f, opt);
      const std::string what = name + " " + std::string(synth::to_string(f));
      EXPECT_TRUE(flow.net.index_topological()) << what;
      EXPECT_TRUE(index_order_is_topological(flow.net)) << what;
    }
  };
  synth::SynthOptions booth;
  booth.booth_multipliers = true;
  for (const Design& d : paper_designs()) {
    check_flows(d.graph, {}, d.name);
    // The `dpc --booth --fold` options.
    check_flows(transform::fold_constants(d.graph), booth,
                d.name + " booth+fold");
  }
  check_flows(designs::matmul(9, 12), {}, "matmul(9,12)");
}

TEST(IndexOrder, MutatorsFollowTheirRules) {
  Netlist n;
  EXPECT_TRUE(n.index_topological());
  const NetId a = n.new_net(), b = n.new_net();
  n.add_input("a", {{a}});
  n.add_input("b", {{b}});
  const NetId x = n.and2(a, b);  // gate 0
  const NetId y = n.inv(x);      // gate 1
  const NetId z = n.xor2(y, a);  // gate 2
  n.add_output("r", {{z}});
  EXPECT_TRUE(n.index_topological());
  EXPECT_TRUE(index_order_is_topological(n));

  // Earlier drivers and undriven nets keep the bit.
  n.set_input(GateId{2}, 1, x);
  n.set_input(GateId{1}, 0, b);
  EXPECT_TRUE(n.index_topological());
  EXPECT_TRUE(index_order_is_topological(n));

  // Copies carry the bit.
  Netlist copy = n;
  EXPECT_TRUE(copy.index_topological());
  (void)copy.mutable_gates();
  EXPECT_FALSE(copy.index_topological());
  EXPECT_TRUE(index_order_is_topological(copy));  // the bit is conservative

  // A later driver clears it; no loop, so the checker stays quiet.
  n.set_input(GateId{0}, 1, y);
  EXPECT_FALSE(n.index_topological());
  EXPECT_FALSE(index_order_is_topological(n));
  EXPECT_EQ(netlist::kahn_order(n), netlist::oracle::topo_gates(n));
  const auto order = n.topo_gates();
  EXPECT_EQ(std::vector<GateId>(order.begin(), order.end()),
            netlist::oracle::topo_gates(n));
  EXPECT_TRUE(check::verify(n).ok());

  // Rewiring back to index order does not set it again.
  n.set_input(GateId{0}, 1, b);
  EXPECT_TRUE(index_order_is_topological(n));
  EXPECT_FALSE(n.index_topological());

  // A gate reading its own output is a later driver too.
  Netlist s;
  const NetId c = s.new_net();
  s.add_input("c", {{c}});
  const NetId o = s.inv(c);
  s.add_output("r", {{o}});
  s.set_input(GateId{0}, 0, o);
  EXPECT_FALSE(s.index_topological());
  EXPECT_FALSE(index_order_is_topological(s));
  EXPECT_EQ(check::verify(s).count_rule("net.comb-loop"), 1);

  // add_gate keeps a set bit set.
  Netlist g;
  const NetId d = g.new_net();
  g.add_gate(CellType::INV, {g.add_gate(CellType::BUF, {d})});
  EXPECT_TRUE(g.index_topological());
  EXPECT_TRUE(index_order_is_topological(g));
}

/// Once a rewire breaks index order, the incremental timer must order its
/// worklist by Kahn position: keyed by gate index it would re-evaluate X
/// before Y and again after.
TEST(IndexOrder, IncrementalStaVisitsEachConeGateOnceAfterARewire) {
  Netlist n;
  const NetId a = n.new_net();
  n.add_input("a", {{a}});
  const NetId s = n.inv(a);                            // gate 0
  const NetId x = n.add_gate(CellType::AND2, {s, a});  // gate 1
  const NetId y = n.inv(s);                            // gate 2
  n.add_output("x", {{x}});
  n.add_output("y", {{y}});
  n.set_input(GateId{1}, 1, y);  // X now reads Y, a later gate
  ASSERT_FALSE(n.index_topological());

  const auto& lib = CellLibrary::tsmc025();
  netlist::IncrementalSta ista(n, lib);
  n.set_drive(GateId{0}, 2);
  obs::StatSink sink;
  {
    obs::StatScope scope(&sink);
    ista.update_drive_change(GateId{0});
  }
  EXPECT_EQ(sink.get("sta.incremental_cone_gates"), 3);  // S, Y, X
  EXPECT_EQ(ista.arrivals(), Sta(lib).analyze(n).arrival);
}

TEST(IndexOrder, TimingAndSimulationMatchTheKahnPath) {
  for (const Design& d : paper_designs()) {
    for (Flow f : kFlows) {
      const auto flow = synth::run_flow(d.graph, f);
      ASSERT_TRUE(flow.net.index_topological());
      expect_orders_agree(flow.net,
                          d.name + " " + std::string(synth::to_string(f)));
    }
  }
}

/// The Table 2 optimiser on a netlist with the bit set (its incremental
/// timer keys the worklist by gate index until a buffer move clears the
/// bit) and on its Kahn copy: the same moves, netlist and counters.
TEST(IndexOrder, OptimiserMatchesTheKahnPath) {
  const auto& lib = CellLibrary::tsmc025();
  int buffered = 0;
  for (const auto& t : designs::all_testcases()) {
    for (Flow f : {Flow::OldMerge, Flow::NewMerge}) {
      const std::string what = t.name + " " + std::string(synth::to_string(f));
      auto flow = synth::run_flow(t.graph, f);
      Netlist by_index = flow.net;
      Netlist by_kahn = kahn_copy(flow.net);
      opt::TimingOptOptions o;
      o.target_ns = Sta(lib).analyze(flow.net).longest_path_ns * 0.93;
      o.max_moves = 5000;
      const opt::TimingOptimizer optimizer(lib);
      obs::StatSink si, sk;
      opt::TimingOptResult ri, rk;
      {
        obs::StatScope scope(&si);
        ri = optimizer.optimize(by_index, o);
      }
      {
        obs::StatScope scope(&sk);
        rk = optimizer.optimize(by_kahn, o);
      }
      EXPECT_EQ(ri.final_ns, rk.final_ns) << what;
      EXPECT_EQ(ri.final_area, rk.final_area) << what;
      EXPECT_EQ(ri.moves, rk.moves) << what;
      // Everything but the one sort the Kahn copy's timer adds.
      EXPECT_EQ(si.get("netlist.kahn_sorts"), 0) << what;
      EXPECT_EQ(sk.get("netlist.kahn_sorts"), 1) << what;
      auto counters = [](const obs::StatSink& sink) {
        auto v = sink.values();
        v.erase("netlist.kahn_sorts");
        return v;
      };
      EXPECT_EQ(counters(si), counters(sk)) << what;
      ASSERT_EQ(by_index.gate_count(), by_kahn.gate_count()) << what;
      for (int gi = 0; gi < by_index.gate_count(); ++gi) {
        const Gate& p = by_index.gates()[static_cast<std::size_t>(gi)];
        const Gate& q = by_kahn.gates()[static_cast<std::size_t>(gi)];
        ASSERT_TRUE(p.type == q.type && p.drive == q.drive &&
                    by_index.output(GateId{gi}) ==
                        by_kahn.output(GateId{gi}) &&
                    p.pins == q.pins)
            << what << " gate " << gi;
      }
      if (by_index.index_topological()) {
        expect_orders_agree(by_index, what + " optimised");
      } else {
        ++buffered;
      }
    }
  }
  EXPECT_GT(buffered, 0) << "no buffer move cleared the bit";
}

}  // namespace
}  // namespace dpmerge
