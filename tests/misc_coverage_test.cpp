// Cross-module coverage: behaviours exercised nowhere else — STA load
// bookkeeping, buffering effects, kernel-level transforms, and error paths.

#include <gtest/gtest.h>

#include "dpmerge/designs/kernels.h"
#include "dpmerge/dfg/builder.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/opt/timing_opt.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/transform/rebalance.h"
#include "dpmerge/transform/width_prune.h"
#include "dfg_oracle.h"

namespace dpmerge {
namespace {

using dfg::oracle::equivalent_by_simulation;

using dfg::Builder;
using dfg::Graph;
using dfg::Operand;

TEST(StaCoverage, LoadOnSumsReaderPins) {
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}};
  n.add_input("a", a);
  const auto i1 = n.inv(a.bit(0));
  const auto i2 = n.inv(a.bit(0));
  const auto x = n.xor2(a.bit(0), i1);
  n.add_output("y", netlist::Signal{{n.and2(i2, x)}});
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  const auto& lib = netlist::CellLibrary::tsmc025();
  // a.bit(0) feeds: two INV pins and one XOR pin.
  const double expect = 2 * lib.variant(netlist::CellType::INV, 0).input_cap +
                        lib.variant(netlist::CellType::XOR2, 0).input_cap;
  const auto loads = sta.net_loads(n);
  EXPECT_NEAR(loads[static_cast<std::size_t>(a.bit(0).value)], expect, 1e-12);
}

TEST(StaCoverage, UpsizingReaderIncreasesDriverLoad) {
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}};
  n.add_input("a", a);
  const auto i1 = n.inv(a.bit(0));
  n.add_output("y", netlist::Signal{{n.inv(i1)}});
  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  const double before =
      sta.net_loads(n)[static_cast<std::size_t>(i1.value)];
  n.mutable_gates()[1].drive = 2;
  EXPECT_GT(sta.net_loads(n)[static_cast<std::size_t>(i1.value)], before);
}

TEST(OptCoverage, BufferSplitHelpsHighFanoutCriticalNet) {
  // One slow driver fanning out to many loads: buffering the non-critical
  // readers must shorten the longest path.
  netlist::Netlist n;
  netlist::Signal a{{n.new_net()}}, b{{n.new_net()}};
  n.add_input("a", a);
  n.add_input("b", b);
  const auto hot = n.xor2(a.bit(0), b.bit(0));
  netlist::Signal out;
  // The "critical" reader chain.
  netlist::NetId chain = hot;
  for (int i = 0; i < 4; ++i) chain = n.xor2(chain, b.bit(0));
  out.bits.push_back(chain);
  // Twenty cheap side readers loading `hot`.
  for (int i = 0; i < 20; ++i) out.bits.push_back(n.and2(hot, a.bit(0)));
  n.add_output("y", out);

  netlist::Sta sta(netlist::CellLibrary::tsmc025());
  const double before = sta.analyze(n).longest_path_ns;
  opt::TimingOptimizer optimizer(netlist::CellLibrary::tsmc025());
  opt::TimingOptOptions o;
  o.target_ns = 0.0;
  o.max_moves = 50;
  o.buffer_load_threshold = 4.0;
  const auto res = optimizer.optimize(n, o);
  EXPECT_LT(res.final_ns, before);
  // A BUF cell actually appeared.
  int bufs = 0;
  for (const auto& g : n.gates()) bufs += g.type == netlist::CellType::BUF;
  EXPECT_GE(bufs, 1);
}

TEST(KernelCoverage, PrepareNewMergeShrinksKernelWidths) {
  // The frontend's lossless inference makes every operator as wide as the
  // worst case; required precision against the declared outputs narrows
  // them back.
  for (const auto& k : designs::dsp_kernels()) {
    dfg::Graph g = k.graph;
    int before = 0, after = 0;
    for (const auto& n : g.nodes()) {
      if (dfg::is_arith_operator(n.kind)) before += n.width;
    }
    synth::prepare_new_merge(g);
    for (const auto& n : g.nodes()) {
      if (dfg::is_arith_operator(n.kind)) after += n.width;
    }
    EXPECT_LE(after, before) << k.name;
  }
}

TEST(KernelCoverage, RebalanceKernelsEquivalent) {
  for (const auto& k : designs::dsp_kernels()) {
    const dfg::Graph r = transform::rebalance_clusters(k.graph);
    ASSERT_TRUE(r.validate().empty()) << k.name;
    Rng rng(3000);
    std::string why;
    EXPECT_TRUE(equivalent_by_simulation(k.graph, r, 16, rng, &why))
        << k.name << ": " << why;
  }
}

TEST(EvalCoverage, EquivalenceRejectsMissingInput) {
  Graph g1;
  {
    Builder b(g1);
    const auto a = b.input("a", 4);
    b.output("r", 4, Operand{a});
  }
  Graph g2;
  {
    Builder b(g2);
    const auto x = b.input("other", 4);
    b.output("r", 4, Operand{x});
  }
  Rng rng(1);
  EXPECT_THROW(equivalent_by_simulation(g1, g2, 4, rng),
               std::invalid_argument);
}

TEST(EvalCoverage, CarriedVsOperandDiffer) {
  // Edge narrower than both endpoints: the carried signal is the truncated
  // middle value; the operand re-extends it.
  Graph g;
  Builder b(g);
  const auto a = b.input("a", 8);
  const auto s = b.add(8, Operand{a}, Operand{a});
  const auto t = b.add(10, Operand{s, 4, Sign::Signed},
                       Operand{a, 10, Sign::Signed});
  b.output("r", 10, Operand{t});
  dfg::Evaluator ev(g);
  const auto results =
      ev.run({BitVector::from_uint(8, 0x1C)});  // s = 0x38, low 4 = 0x8
  const dfg::Edge& e = g.edge(g.node(t).in[0]);
  const BitVector& sv = results[static_cast<std::size_t>(s.value)];
  const auto d =
      dfg::deliver(sv, sv.width(), e, g.node(t), dfg::BitVectorOps{});
  EXPECT_EQ(d.carried.width(), 4);
  EXPECT_EQ(d.carried.to_uint64(), 0x8u);
  // Sign-extended to 10 bits: 1000 -> 1111111000.
  EXPECT_EQ(d.delivered.to_int64(), -8);
}

TEST(WidthPruneCoverage, StatsToStringMentionsEverything) {
  transform::PruneStats s;
  s.nodes_narrowed = 3;
  s.edges_narrowed = 4;
  s.extensions_inserted = 1;
  s.bits_removed = 17;
  const auto str = s.to_string();
  EXPECT_NE(str.find("3"), std::string::npos);
  EXPECT_NE(str.find("17"), std::string::npos);
  EXPECT_TRUE(s.changed());
  EXPECT_FALSE(transform::PruneStats{}.changed());
}

}  // namespace
}  // namespace dpmerge
