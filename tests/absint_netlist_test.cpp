// Tests for the gate-level dead-logic lint (check::lint_netlist_deadlogic):
// tri-state constant propagation, backward observability with constant
// blocking and decided-MUX pruning, the finding cap, and a smoke run over
// synthesized paper designs.

#include <gtest/gtest.h>

#include "dpmerge/check/absint_netlist.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/netlist/netlist.h"
#include "dpmerge/synth/flow.h"
#include "sim_oracle.h"

namespace dpmerge {
namespace {

using check::NetlistAbsintStats;
using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::Signal;

Netlist two_input_net(NetId* a, NetId* b) {
  Netlist nl;
  *a = nl.new_net();
  *b = nl.new_net();
  nl.add_input("a", Signal{{*a}});
  nl.add_input("b", Signal{{*b}});
  return nl;
}

TEST(NetlistDeadlogic, ConstantConeIsFlagged) {
  NetId a, b;
  Netlist nl = two_input_net(&a, &b);
  // x & 0 == 0: the AND gate's output is constant whatever x does. Raw
  // add_gate — the and2() convenience builder would fold this away.
  const NetId dead = nl.add_gate(CellType::AND2, {a, nl.const0()});
  const NetId live = nl.xor2(dead, b);
  nl.add_output("y", Signal{{live}});

  NetlistAbsintStats st;
  const auto rep = check::lint_netlist_deadlogic(nl, &st);
  EXPECT_EQ(st.constant_cells, 1);
  EXPECT_EQ(rep.count_rule("net.absint.constant-cell"), 1);
  EXPECT_FALSE(rep.has_rule("net.absint.unobservable-cell")) << rep.to_text();
}

TEST(NetlistDeadlogic, TriStateCellAlgebraIsSound) {
  using check::Tri;
  for (const netlist::CellInfo& cell : netlist::kCells) {
    const int n = cell.inputs;
    int assignments = 1;
    for (int k = 0; k < n; ++k) assignments *= 3;
    for (int a = 0; a < assignments; ++a) {
      Tri in[netlist::kMaxCellInputs] = {};
      for (int k = 0, rest = a; k < n; ++k, rest /= 3) {
        in[k] = static_cast<Tri>(rest % 3);
      }
      const Tri out =
          netlist::apply_cell(cell.type, in, check::tristate::Ops{});
      // Every completion of the unknown pins must land inside `out`.
      for (int c = 0; c < (1 << n); ++c) {
        std::vector<bool> concrete;
        bool completes = true;
        for (int k = 0; k < n; ++k) {
          const bool bit = (c >> k) & 1;
          if (in[k] != Tri::U && in[k] != (bit ? Tri::T : Tri::F)) {
            completes = false;
          }
          concrete.push_back(bit);
        }
        if (!completes) continue;
        const bool v = netlist::eval_cell(cell.type, concrete);
        if (out != Tri::U) {
          EXPECT_EQ(out, v ? Tri::T : Tri::F)
              << cell.name << " assignment " << a;
        }
      }
      // Known inputs give a known output.
      bool all_known = true;
      for (int k = 0; k < n; ++k) all_known = all_known && in[k] != Tri::U;
      if (all_known) {
        EXPECT_NE(out, Tri::U) << cell.name << " assignment " << a;
      }
    }
  }
}

TEST(NetlistDeadlogic, UnreferencedGateIsUnobservable) {
  NetId a, b;
  Netlist nl = two_input_net(&a, &b);
  (void)nl.xor2(a, b);  // drives nothing
  nl.add_output("y", Signal{{nl.and2(a, b)}});

  NetlistAbsintStats st;
  const auto rep = check::lint_netlist_deadlogic(nl, &st);
  EXPECT_EQ(st.constant_cells, 0);
  EXPECT_EQ(st.unobservable_cells, 1);
  EXPECT_EQ(rep.count_rule("net.absint.unobservable-cell"), 1);
}

TEST(NetlistDeadlogic, ConstantNetBlocksObservability) {
  NetId a, b;
  Netlist nl = two_input_net(&a, &b);
  // inv(a) feeds only an AND against const0. The AND output is constant, so
  // the inverter cannot influence the output bus either: one constant cell
  // plus one unobservable cell behind it.
  const NetId na = nl.inv(a);
  const NetId dead = nl.add_gate(CellType::AND2, {na, nl.const0()});
  nl.add_output("y", Signal{{nl.or2(dead, b)}});

  NetlistAbsintStats st;
  const auto rep = check::lint_netlist_deadlogic(nl, &st);
  EXPECT_EQ(st.constant_cells, 1) << rep.to_text();
  EXPECT_EQ(st.unobservable_cells, 1) << rep.to_text();
}

TEST(NetlistDeadlogic, DecidedMuxExposesOnlySelectedLeg) {
  NetId a, b;
  Netlist nl = two_input_net(&a, &b);
  // Select is constant 1: the mux always passes leg 1 (b); the inverter
  // feeding leg 0 can never reach the output.
  const NetId leg0 = nl.inv(a);
  const NetId m = nl.add_gate(CellType::MUX2, {leg0, b, nl.const1()});
  nl.add_output("y", Signal{{m}});

  NetlistAbsintStats st;
  const auto rep = check::lint_netlist_deadlogic(nl, &st);
  EXPECT_EQ(st.unobservable_cells, 1) << rep.to_text();
  // The mux output itself varies with b, so it is not constant.
  EXPECT_EQ(st.constant_cells, 0) << rep.to_text();
}

TEST(NetlistDeadlogic, MuxWithAgreeingLegsIsConstantDownstream) {
  NetId a, b;
  Netlist nl = two_input_net(&a, &b);
  // Both legs are const1: even with an unknown select the mux output is 1.
  const NetId m =
      nl.add_gate(CellType::MUX2, {nl.const1(), nl.const1(), a});
  nl.add_output("y", Signal{{nl.and2(m, b)}});
  NetlistAbsintStats st;
  (void)check::lint_netlist_deadlogic(nl, &st);
  EXPECT_EQ(st.constant_cells, 1);
}

TEST(NetlistDeadlogic, FindingCapKeepsStatsExact) {
  Netlist nl;
  const NetId a = nl.new_net();
  nl.add_input("a", Signal{{a}});
  for (int i = 0; i < 10; ++i) {
    (void)nl.add_gate(CellType::AND2, {a, nl.const0()});
  }
  nl.add_output("y", Signal{{nl.buf(a)}});
  NetlistAbsintStats st;
  const auto rep = check::lint_netlist_deadlogic(nl, &st, /*max_findings=*/3);
  EXPECT_EQ(st.constant_cells, 10);
  EXPECT_EQ(static_cast<int>(rep.diagnostics().size()), 3);
}

TEST(NetlistDeadlogic, CleanNetHasNoFindings) {
  NetId a, b;
  Netlist nl = two_input_net(&a, &b);
  nl.add_output("y", Signal{{nl.xor2(a, b)}});
  NetlistAbsintStats st;
  const auto rep = check::lint_netlist_deadlogic(nl, &st);
  EXPECT_TRUE(rep.clean()) << rep.to_text();
  EXPECT_EQ(st.constant_cells, 0);
  EXPECT_EQ(st.unobservable_cells, 0);
}

// Smoke over real synthesis output: the lint must run on every flow of
// every paper design without errors (its findings are warnings by design)
// and count every gate exactly once.
TEST(NetlistDeadlogic, RunsOnSynthesizedPaperDesigns) {
  for (const auto& tc : designs::all_testcases()) {
    for (auto flow : {synth::Flow::OldMerge, synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(tc.graph, flow);
      NetlistAbsintStats st;
      const auto rep = check::lint_netlist_deadlogic(res.net, &st, -1);
      EXPECT_EQ(st.gates, res.net.gate_count());
      EXPECT_LE(st.constant_cells + st.unobservable_cells, st.gates);
      for (const auto& d : rep.diagnostics()) {
        EXPECT_EQ(d.severity, check::Severity::Warning)
            << tc.name << ": " << d.rule;
      }
    }
  }
}

}  // namespace
}  // namespace dpmerge
