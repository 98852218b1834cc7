// Tests for dpmerge::check: hand-corrupted graphs/netlists must each trip
// exactly the expected rule, the paper designs must come out clean, and the
// pass-boundary hooks must fire (or stay free) per CheckPolicy.

#include <gtest/gtest.h>

#include "dpmerge/check/absint_engine.h"
#include "dpmerge/check/absint_netlist.h"
#include "dpmerge/check/check.h"
#include "dpmerge/designs/figures.h"
#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/frontend/parser.h"
#include "dpmerge/synth/flow.h"
#include "dpmerge/transform/width_prune.h"

namespace dpmerge {
namespace {

using check::CheckPolicy;
using check::CheckReport;
using check::PolicyScope;
using dfg::Graph;
using dfg::NodeId;
using dfg::OpKind;

/// A minimal well-formed graph: out = a + b.
Graph small_adder() {
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 8, "a");
  const NodeId b = g.add_node(OpKind::Input, 8, "b");
  const NodeId s = g.add_node(OpKind::Add, 9);
  g.add_edge(a, s, 0, 9, Sign::Unsigned);
  g.add_edge(b, s, 1, 9, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 9, "out");
  g.add_edge(s, o, 0, 9, Sign::Unsigned);
  return g;
}

netlist::Netlist small_netlist() {
  netlist::Netlist n;
  netlist::Signal in;
  in.bits = {n.new_net(), n.new_net()};
  n.add_input("x", in);
  netlist::Signal out;
  out.bits.push_back(n.add_gate(netlist::CellType::AND2,
                                {in.bit(0), in.bit(1)}));
  n.add_output("y", out);
  return n;
}

TEST(VerifyGraph, CleanGraphPasses) {
  const CheckReport rep = check::verify(small_adder());
  EXPECT_TRUE(rep.clean()) << rep.to_text();
}

TEST(VerifyGraph, DirectedCycle) {
  Graph g = small_adder();
  // A second adder wired mutually with the first: 2 -> 4 -> 2.
  const NodeId s2 = g.add_node(OpKind::Add, 9);
  g.add_edge(NodeId{2}, s2, 0, 9, Sign::Unsigned);
  g.add_edge(s2, NodeId{2}, 2, 9, Sign::Unsigned);
  const CheckReport rep = check::verify(g);
  EXPECT_TRUE(rep.has_rule("dfg.graph.cycle")) << rep.to_text();
  EXPECT_FALSE(rep.ok());
}

TEST(VerifyGraph, CycleListsTheNodesLeftOutOfTheFrozenOrder) {
  Graph g = small_adder();
  const NodeId s2 = g.add_node(OpKind::Add, 9);
  g.add_edge(NodeId{2}, s2, 0, 9, Sign::Unsigned);
  g.add_edge(s2, NodeId{2}, 2, 9, Sign::Unsigned);
  // The cycle 2 <-> 4 and the output 3 it feeds stay unsorted.
  const CheckReport rep = check::verify(g);
  ASSERT_EQ(rep.count_rule("dfg.graph.cycle"), 1) << rep.to_text();
  for (const auto& d : rep.diagnostics()) {
    if (d.rule != "dfg.graph.cycle") continue;
    EXPECT_EQ(d.message, "graph contains a directed cycle through nodes {2 3 4}");
  }
}

TEST(VerifyGraph, MissingOperand) {
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 8, "a");
  const NodeId s = g.add_node(OpKind::Add, 8);
  g.add_edge(a, s, 0, 8, Sign::Unsigned);  // port 1 never connected
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(s, o, 0, 8, Sign::Unsigned);
  const CheckReport rep = check::verify(g);
  EXPECT_EQ(rep.count_rule("dfg.node.arity"), 1) << rep.to_text();
}

TEST(VerifyGraph, UnconnectedPortSlot) {
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 8, "a");
  const NodeId s = g.add_node(OpKind::Add, 8);
  g.add_edge(a, s, 1, 8, Sign::Unsigned);  // port 0 left as a hole
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(s, o, 0, 8, Sign::Unsigned);
  const CheckReport rep = check::verify(g);
  EXPECT_EQ(rep.count_rule("dfg.port.unconnected"), 1) << rep.to_text();
  EXPECT_FALSE(rep.has_rule("dfg.node.arity")) << rep.to_text();
}

TEST(VerifyGraph, OutputWithFanout) {
  Graph g = small_adder();
  const NodeId ext = g.add_node(OpKind::Extension, 4);
  g.add_edge(NodeId{3}, ext, 0, 9, Sign::Unsigned);  // node 3 is the Output
  const NodeId o2 = g.add_node(OpKind::Output, 4, "out2");
  g.add_edge(ext, o2, 0, 4, Sign::Unsigned);
  const CheckReport rep = check::verify(g);
  EXPECT_EQ(rep.count_rule("dfg.output.fanout"), 1) << rep.to_text();
}

TEST(VerifyGraph, NonCanonicalConstant) {
  Graph g;
  const NodeId c = g.add_const(BitVector::from_uint(8, 200));
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(c, o, 0, 8, Sign::Unsigned);
  g.set_node_width(c, 5);  // value stays 8 bits wide
  const CheckReport rep = check::verify(g);
  EXPECT_EQ(rep.count_rule("dfg.const.canonical"), 1) << rep.to_text();
}

TEST(VerifyGraph, SignedComparatorEdge) {
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 8, "a");
  const NodeId b = g.add_node(OpKind::Input, 8, "b");
  const NodeId lt = g.add_node(OpKind::LtU, 8);
  g.add_edge(a, lt, 0, 8, Sign::Unsigned);
  g.add_edge(b, lt, 1, 8, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 4, "out");
  const auto e = g.add_edge(lt, o, 0, 1, Sign::Unsigned);
  g.set_edge_sign(e, Sign::Signed);
  const CheckReport rep = check::verify(g);
  EXPECT_EQ(rep.count_rule("dfg.sign.comparator"), 1) << rep.to_text();
}

TEST(VerifyGraph, ShiftAttributeOnNonShlNode) {
  Graph g = small_adder();
  g.set_node_shift(NodeId{2}, 3);  // node 2 is the Add
  const CheckReport rep = check::verify(g);
  EXPECT_EQ(rep.count_rule("dfg.shl.shift"), 1) << rep.to_text();
}

TEST(VerifyGraph, WideShiftWarnsButStaysOk) {
  Graph g;
  const NodeId a = g.add_node(OpKind::Input, 4, "a");
  const NodeId sh = g.add_node(OpKind::Shl, 4);
  g.set_node_shift(sh, 7);
  g.add_edge(a, sh, 0, 4, Sign::Unsigned);
  const NodeId o = g.add_node(OpKind::Output, 4, "out");
  g.add_edge(sh, o, 0, 4, Sign::Unsigned);
  const CheckReport rep = check::verify(g);
  EXPECT_TRUE(rep.ok()) << rep.to_text();
  EXPECT_EQ(rep.count_rule("dfg.shl.wide-shift"), 1) << rep.to_text();
}

TEST(VerifyNetlist, CleanNetlistPasses) {
  const CheckReport rep = check::verify(small_netlist());
  EXPECT_TRUE(rep.ok()) << rep.to_text();
}

TEST(VerifyNetlist, InputBusNamesGateOutput) {
  // Every net is a source or a gate's output, so a gate cannot drive an
  // input bit; an input bus can still name a gate's output.
  netlist::Netlist n = small_netlist();
  const netlist::NetId y = n.outputs()[0].signal.bit(0);
  n.add_input("z", netlist::Signal{{n.new_net(), y}});
  const CheckReport rep = check::verify(n);
  ASSERT_EQ(rep.count_rule("net.input-driven"), 1) << rep.to_text();
  EXPECT_EQ(rep.diagnostics().size(), 1u) << rep.to_text();
  const check::Diagnostic& d = rep.diagnostics()[0];
  EXPECT_EQ(d.message, "input bus 'z' bit 1 (net 4) is the output of gate 0");
  EXPECT_EQ(d.locus.id, y.value);
  EXPECT_EQ(d.locus.aux, 1);
}

TEST(VerifyNetlist, CombinationalLoop) {
  netlist::Netlist n = small_netlist();
  n.add_gate(netlist::CellType::INV, {n.new_net()});
  n.add_gate(netlist::CellType::INV, {n.new_net()});
  const auto gates = n.mutable_gates();
  // inv1 reads inv2's output and vice versa.
  gates[1].pins[0] = n.output(netlist::GateId{2});
  gates[2].pins[0] = n.output(netlist::GateId{1});
  const CheckReport rep = check::verify(n);
  EXPECT_EQ(rep.count_rule("net.comb-loop"), 1) << rep.to_text();
}

TEST(VerifyNetlist, FloatingGateInput) {
  netlist::Netlist n = small_netlist();
  n.add_gate(netlist::CellType::INV, {n.new_net()});
  const CheckReport rep = check::verify(n);
  EXPECT_EQ(rep.count_rule("net.floating-input"), 1) << rep.to_text();
}

TEST(VerifyNetlist, UndrivenPrimaryOutput) {
  netlist::Netlist n = small_netlist();
  netlist::Signal s;
  s.bits = {n.new_net(), n.new_net()};
  n.add_output("z", s);
  const CheckReport rep = check::verify(n);
  EXPECT_EQ(rep.count_rule("net.undriven-output"), 2) << rep.to_text();
}

TEST(VerifyNetlist, GatePinArity) {
  // A gate stores no pin count, so a wrong one is refused where the gate
  // is built, in every build type.
  netlist::Netlist n = small_netlist();
  const netlist::NetId a = n.inputs()[0].signal.bit(0);
  const int gates = n.gate_count();
  EXPECT_THROW(n.add_gate(netlist::CellType::INV, {a, a}),
               std::invalid_argument);
  EXPECT_THROW(n.add_gate(netlist::CellType::MUX2, {a, a}),
               std::invalid_argument);
  EXPECT_EQ(n.gate_count(), gates);
  EXPECT_TRUE(check::verify(n).clean());
}

TEST(VerifyNetlist, CellTypeChangeExposesUnusedPin) {
  // INV -> AND2 through the corruption hook brings the unused second pin
  // slot, which holds NetId{}, into use.
  netlist::Netlist n = small_netlist();
  n.add_gate(netlist::CellType::INV, {n.inputs()[0].signal.bit(0)});
  n.mutable_gates()[1].type = netlist::CellType::AND2;
  const CheckReport rep = check::verify(n);
  EXPECT_EQ(rep.count_rule("net.range"), 1) << rep.to_text();
}

TEST(VerifyNetlist, DriveOutsideLibrary) {
  netlist::Netlist n = small_netlist();
  n.mutable_gates()[0].drive = netlist::kDriveLevels;
  const CheckReport rep = check::verify(n);
  EXPECT_EQ(rep.count_rule("net.gate.drive"), 1) << rep.to_text();
}

TEST(VerifyNetlist, CellTypeOutsideLibrary) {
  // The type fixes the pin count, so the verifier must not read the pins of
  // a gate whose type is out of range (ASan catches a read past them).
  netlist::Netlist n = small_netlist();
  n.mutable_gates()[0].type = static_cast<netlist::CellType>(200);
  const CheckReport rep = check::verify(n);
  EXPECT_EQ(rep.count_rule("net.gate.type"), 1) << rep.to_text();
  EXPECT_FALSE(rep.has_rule("net.comb-loop")) << rep.to_text();
  EXPECT_FALSE(rep.has_rule("net.undriven-output")) << rep.to_text();
}

TEST(VerifyNetlist, UnreadGateIsDeadLogic) {
  netlist::Netlist n = small_netlist();
  n.add_gate(netlist::CellType::INV, {n.inputs()[0].signal.bit(0)});
  EXPECT_TRUE(check::verify(n).clean());
  check::NetlistAbsintStats st;
  const CheckReport rep = check::lint_netlist_deadlogic(n, &st);
  EXPECT_EQ(st.unobservable_cells, 1);
  ASSERT_EQ(rep.count_rule("net.absint.unobservable-cell"), 1)
      << rep.to_text();
  EXPECT_EQ(rep.diagnostics()[0].locus.id, 1);
}

// ------------------------------------------------------- analysis lints --

TEST(AnalysisLint, UnsoundClaimIsContradicted) {
  Graph g;
  const NodeId c = g.add_const(BitVector::from_uint(8, 255));
  const NodeId o = g.add_node(OpKind::Output, 8, "out");
  g.add_edge(c, o, 0, 8, Sign::Unsigned);
  auto ia = analysis::compute_info_content(g);
  // Claim the constant fits in 4 unsigned bits; bit 7 is provably 1.
  ia.at_output_port[static_cast<std::size_t>(c.value)] = {4, Sign::Unsigned};
  const CheckReport rep = check::lint_absint(g, &ia);
  EXPECT_TRUE(rep.has_rule("ic.unsound")) << rep.to_text();
}

// --------------------------------------------------- policy + boundaries --

TEST(Policy, ParseAndPrint) {
  EXPECT_EQ(check::parse_policy("off"), CheckPolicy::Off);
  EXPECT_EQ(check::parse_policy("errors"), CheckPolicy::Errors);
  EXPECT_EQ(check::parse_policy("paranoid"), CheckPolicy::Paranoid);
  EXPECT_FALSE(check::parse_policy("bogus").has_value());
  EXPECT_EQ(check::to_string(CheckPolicy::Paranoid), "paranoid");
}

TEST(Policy, ScopeRestores) {
  ASSERT_EQ(check::policy(), CheckPolicy::Off);
  {
    PolicyScope scope(CheckPolicy::Paranoid);
    EXPECT_EQ(check::policy(), CheckPolicy::Paranoid);
  }
  EXPECT_EQ(check::policy(), CheckPolicy::Off);
}

TEST(Boundaries, EnforceThrowsCheckFailureWithSiteAndReport) {
  Graph g = small_adder();
  g.set_node_shift(NodeId{2}, 3);
  PolicyScope scope(CheckPolicy::Errors);
  try {
    check::enforce(g, "test.site");
    FAIL() << "enforce did not throw";
  } catch (const check::CheckFailure& e) {
    EXPECT_EQ(e.site(), "test.site");
    EXPECT_TRUE(e.report().has_rule("dfg.shl.shift"));
    EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
  }
}

TEST(Boundaries, ErrorsPolicyRejectsLoopClosedBySetInput) {
  netlist::Netlist n = small_netlist();
  const netlist::NetId a = n.inputs()[0].signal.bit(0);
  const netlist::NetId x = n.inv(a);
  n.inv(x);
  PolicyScope scope(CheckPolicy::Errors);
  check::enforce(n, "test.site");  // loop-free: no throw
  // inv1 <-> inv2
  n.set_input(netlist::GateId{1}, 0, n.output(netlist::GateId{2}));
  try {
    check::enforce(n, "test.site");
    FAIL() << "enforce did not throw";
  } catch (const check::CheckFailure& e) {
    ASSERT_EQ(e.report().count_rule("net.comb-loop"), 1)
        << e.report().to_text();
    EXPECT_EQ(e.report().diagnostics()[0].message,
              "combinational loop through 2 gate(s) {1 2}");
  }
}

TEST(Boundaries, OffPolicyIsInert) {
  Graph g = small_adder();
  g.set_node_shift(NodeId{2}, 3);  // broken, but checks are off
  check::enforce(g, "test.site");
  check::enforce_pre(g, "test.site");
}

TEST(Boundaries, TransformsRejectBrokenInputUnderParanoid) {
  Graph g = small_adder();
  g.set_node_shift(NodeId{2}, 3);
  PolicyScope scope(CheckPolicy::Paranoid);
  EXPECT_THROW(transform::normalize_widths(g), check::CheckFailure);
}

TEST(Boundaries, ParanoidAnalysisGuardRejectsUnsoundAndStaleResults) {
  PolicyScope scope(CheckPolicy::Paranoid);
  auto rule_thrown = [](const Graph& g, const analysis::InfoAnalysis& ia,
                        const analysis::RequiredPrecision* rp,
                        const char* rule) {
    try {
      check::enforce_analyses(g, ia, rp, "test.analyses");
      ADD_FAILURE() << "enforce_analyses did not throw " << rule;
    } catch (const check::CheckFailure& e) {
      EXPECT_EQ(e.site(), "test.analyses");
      EXPECT_TRUE(e.report().has_rule(rule)) << e.report().to_text();
    }
  };

  // A tampered claim: the constant 255 does not fit 4 unsigned bits.
  Graph k;
  const NodeId c = k.add_const(BitVector::from_uint(8, 255));
  k.add_edge(c, k.add_node(OpKind::Output, 8, "out"), 0, 8, Sign::Unsigned);
  auto ia = analysis::compute_info_content(k);
  ia.at_output_port[static_cast<std::size_t>(c.value)] = {4, Sign::Unsigned};
  rule_thrown(k, ia, nullptr, "ic.unsound");

  // A stale required precision: narrowing the output edge changes what the
  // adder must deliver after `rp` was computed.
  Graph g = small_adder();
  const auto rp = analysis::compute_required_precision(g);
  check::enforce_analyses(g, analysis::compute_info_content(g), &rp,
                          "test.analyses");  // fresh and sound: no throw
  g.set_edge_width(g.node(NodeId{3}).in[0], 4);
  rule_thrown(g, analysis::compute_info_content(g), &rp, "rp.stale");
}

TEST(Boundaries, FullFlowsRunCleanUnderParanoid) {
  PolicyScope scope(CheckPolicy::Paranoid);
  for (const auto& tc : designs::all_testcases()) {
    for (const auto flow :
         {synth::Flow::NoMerge, synth::Flow::OldMerge, synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(tc.graph, flow);
      EXPECT_GT(res.net.gate_count(), 0) << tc.name;
      EXPECT_EQ(res.report.check_policy, "paranoid");
      bool has_check_stage = false;
      for (const auto& s : res.report.stages) {
        if (s.name == "check") has_check_stage = true;
      }
      EXPECT_TRUE(has_check_stage) << tc.name;
    }
  }
  for (const auto& k : designs::dsp_kernels()) {
    const auto res = synth::run_flow(k.graph, synth::Flow::NewMerge);
    EXPECT_GT(res.net.gate_count(), 0) << k.name;
  }
  const auto res = synth::run_flow(designs::figure3_g5(),
                                   synth::Flow::NewMerge);
  EXPECT_GT(res.net.gate_count(), 0);
}

TEST(Boundaries, OffPolicyLeavesReportUntouched) {
  const auto res =
      synth::run_flow(designs::make_d4(), synth::Flow::NewMerge);
  EXPECT_EQ(res.report.check_policy, "off");
  EXPECT_EQ(res.report.stage_time_us("check"), 0);
  for (const auto& s : res.report.stages) EXPECT_NE(s.name, "check");
}

// ----------------------------------------------------- frontend negative --

TEST(FrontendErrors, ParseErrorCarriesLocationAndToken) {
  try {
    frontend::compile("input a : u8\noutput y : u8 = a @ a\n");
    FAIL() << "compile did not throw";
  } catch (const frontend::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 0);
    EXPECT_EQ(e.token(), "@");
    EXPECT_NE(std::string(e.what()).find("line 2:"), std::string::npos);
  }
}

TEST(FrontendErrors, UnknownIdentifierPointsAtIt) {
  try {
    frontend::compile("input a : u8\noutput y : u8 = a + bogus\n");
    FAIL() << "compile did not throw";
  } catch (const frontend::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.token(), "bogus");
  }
}

TEST(FrontendErrors, CompileOrDiagnoseReportsInsteadOfThrowing) {
  CheckReport rep;
  const auto res =
      frontend::compile_or_diagnose("output y : u8 = nope\n", rep);
  EXPECT_FALSE(res.has_value());
  ASSERT_EQ(rep.count_rule("frontend.parse"), 1) << rep.to_text();
  const auto& d = rep.diagnostics().front();
  EXPECT_EQ(d.locus.kind, "line");
  EXPECT_EQ(d.locus.id, 1);
  EXPECT_EQ(d.locus.name, "nope");
}

TEST(FrontendErrors, GoodSourceStillCompiles) {
  CheckReport rep;
  const auto res = frontend::compile_or_diagnose(
      "input a : s8\ninput b : s8\noutput y : s10 = a + b\n", rep);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(check::verify(res->graph).clean());
}

TEST(ReportFormat, JsonShapeIsStable) {
  CheckReport rep;
  rep.add(check::Severity::Error, "dfg.node.width", "bad \"width\"",
          check::Locus{"node", 3, -1, "acc"});
  std::string out;
  rep.to_json(out);
  EXPECT_EQ(out,
            "{\"errors\":1,\"warnings\":0,\"diagnostics\":[{\"severity\":"
            "\"error\",\"rule\":\"dfg.node.width\",\"message\":"
            "\"bad \\\"width\\\"\",\"locus\":{\"kind\":\"node\",\"id\":3,"
            "\"aux\":-1,\"name\":\"acc\"}}]}");
}

}  // namespace
}  // namespace dpmerge
