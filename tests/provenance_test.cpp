// Tests for the provenance chain: DecisionLog recording in the clusterers,
// netlist gate owner tags surviving synthesis, critical-path attribution
// reconciling with STA, ledger/diff determinism, and the compile-out
// guarantee that provenance never changes an emitted artifact.

#include <cmath>
#include <set>

#include "gtest/gtest.h"

#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/random_graph.h"
#include "dpmerge/netlist/attribution.h"
#include "dpmerge/netlist/sta.h"
#include "dpmerge/netlist/verilog.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/synth/explain.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

using obs::prov::Decision;
using obs::prov::DecisionId;
using obs::prov::DecisionLog;
using obs::prov::Verdict;

// ---------------------------------------------------------------------------
// DecisionLog basics
// ---------------------------------------------------------------------------

TEST(DecisionLogTest, IdsAreRecordingOrderAndFinalIsLastNodeLevel) {
  DecisionLog log;
  Decision edge;
  edge.node = 3;
  edge.dst_node = 5;
  edge.rule = "cluster.safety2_precision";
  edge.verdict = Verdict::Reject;
  EXPECT_EQ(log.add(edge).value, 0);

  Decision node;
  node.node = 3;
  node.rule = "cluster.safety2_precision";
  node.verdict = Verdict::Reject;
  EXPECT_EQ(log.add(node).value, 1);

  log.next_iteration();
  Decision later;
  later.node = 3;
  later.rule = "cluster.merge";
  later.verdict = Verdict::Accept;
  EXPECT_EQ(log.add(later).value, 2);

  const DecisionId fin = log.final_for_node(3);
  ASSERT_TRUE(fin.valid());
  EXPECT_EQ(fin.value, 2);
  EXPECT_EQ(log.decision(fin).verdict, Verdict::Accept);
  EXPECT_EQ(log.decision(fin).iteration, 1);
  // Per-edge decisions never become "final".
  EXPECT_FALSE(log.final_for_node(5).valid());
  EXPECT_FALSE(log.final_for_node(99).valid());
}

TEST(DecisionLogTest, RejectsForNodeReturnsFinalIterationRejects) {
  DecisionLog log;
  Decision stale;  // iteration 0: superseded by the node's later decision
  stale.node = 2;
  stale.rule = "cluster.safety2_precision";
  stale.verdict = Verdict::Reject;
  log.add(stale);

  log.next_iteration();
  Decision edge;
  edge.node = 2;
  edge.dst_node = 4;
  edge.edge = 7;
  edge.rule = "cluster.synth1_mul_operand";
  edge.verdict = Verdict::Reject;
  log.add(edge);
  Decision fin;
  fin.node = 2;
  fin.rule = "cluster.synth1_mul_operand";
  fin.verdict = Verdict::Reject;
  log.add(fin);

  const auto rejects = log.rejects_for_node(2);
  ASSERT_EQ(rejects.size(), 2u);  // the edge evidence + the node verdict
  EXPECT_EQ(log.decision(rejects[0]).edge, 7);
  EXPECT_EQ(log.decision(rejects[1]).dst_node, -1);
}

TEST(DecisionLogTest, JsonIsWellFormed) {
  DecisionLog log;
  Decision d;
  d.node = 1;
  d.node_op = "Add#1";
  d.rule = "cluster.merge";
  d.verdict = Verdict::Accept;
  d.info_width = 9;
  d.width_savings = 3;
  log.add(d);
  std::string out;
  log.to_json(out);
  EXPECT_NE(out.find("\"cluster.merge\""), std::string::npos);
  EXPECT_NE(out.find("\"accept\""), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

// ---------------------------------------------------------------------------
// Clusterer recording on the paper designs
// ---------------------------------------------------------------------------

TEST(ProvenanceRecordingTest, EveryArithOperatorGetsAFinalVerdict) {
  for (const auto& tc : designs::all_testcases()) {
    const auto res = synth::run_flow(tc.graph, synth::Flow::NewMerge);
    for (const dfg::Node& n : res.graph.nodes()) {
      if (!dfg::is_arith_operator(n.kind)) continue;
      const DecisionId id = res.decisions.final_for_node(n.id.value);
      ASSERT_TRUE(id.valid())
          << tc.name << ": no final decision for node " << n.id.value;
      // Reject <=> the node roots its own cluster.
      const int ci = res.partition.index_of(n.id);
      ASSERT_GE(ci, 0);
      const bool is_root =
          res.partition.clusters[static_cast<std::size_t>(ci)].root == n.id;
      EXPECT_EQ(res.decisions.decision(id).verdict == Verdict::Reject, is_root)
          << tc.name << " node " << n.id.value << " rule "
          << res.decisions.decision(id).rule;
    }
  }
}

TEST(ProvenanceRecordingTest, AllThreeFlowsRecordDecisions) {
  const auto cases = designs::all_testcases();
  for (const auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                          synth::Flow::NewMerge}) {
    const auto res = synth::run_flow(cases[0].graph, flow);
    EXPECT_FALSE(res.decisions.empty())
        << "flow " << synth::to_string(flow) << " recorded nothing";
  }
}

// ---------------------------------------------------------------------------
// Owner tags survive synthesis (property over random graphs)
// ---------------------------------------------------------------------------

TEST(ProvenanceTagTest, EveryGateOwnedByALiveNodeAcrossRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const dfg::Graph g = dfg::random_graph(rng);
    for (const auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                            synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(g, flow);
      ASSERT_TRUE(res.net.has_provenance()) << "seed " << seed;
      for (int gi = 0; gi < res.net.gate_count(); ++gi) {
        const int owner = res.net.provenance_owner(netlist::GateId{gi});
        // Synthesis tags every gate with the DFG node being synthesised;
        // the transformed graph only ever grows, so owners stay in range.
        ASSERT_GE(owner, 0) << "seed " << seed << " gate " << gi;
        ASSERT_LT(owner, res.graph.node_count())
            << "seed " << seed << " gate " << gi;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Critical-path attribution reconciles with STA
// ---------------------------------------------------------------------------

TEST(AttributionTest, DelaysSumToWorstPathOnPaperDesigns) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  const netlist::Sta sta(lib);
  for (const auto& tc : designs::all_testcases()) {
    for (const auto flow : {synth::Flow::NoMerge, synth::Flow::OldMerge,
                            synth::Flow::NewMerge}) {
      const auto res = synth::run_flow(tc.graph, flow);
      const auto timing = sta.analyze(res.net);
      const auto attr = netlist::attribute_critical_path(res.net, timing);
      EXPECT_NEAR(attr.total_ns, timing.longest_path_ns, 1e-9);
      double sum = 0.0;
      for (const auto& [owner, ns] : attr.delay_by_owner) sum += ns;
      EXPECT_NEAR(sum, timing.longest_path_ns,
                  1e-6 * std::max(1.0, timing.longest_path_ns))
          << tc.name << " " << synth::to_string(flow);
      // Incremental delays are non-negative (arrivals are monotone along
      // the path) and there is one segment per critical-path net.
      EXPECT_EQ(attr.segments.size(), timing.critical_path.size());
      for (const auto& seg : attr.segments) EXPECT_GE(seg.incr_ns, -1e-12);
    }
  }
}

TEST(AttributionTest, LedgerReconcilesAndCoversAreaOnPaperDesigns) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  const netlist::Sta sta(lib);
  for (const auto& tc : designs::all_testcases()) {
    auto res = synth::run_flow(tc.graph, synth::Flow::NewMerge);
    const auto timing = sta.analyze(res.net);
    const auto ledger = synth::build_ledger(res, lib, timing);
    EXPECT_NEAR(ledger.attributed_ns, ledger.total_delay_ns,
                1e-6 * std::max(1.0, ledger.total_delay_ns))
        << tc.name;
    EXPECT_NEAR(ledger.total_area, sta.area(res.net), 1e-6) << tc.name;
    std::int64_t gates = 0;
    for (const auto& e : ledger.entries) gates += e.gates;
    EXPECT_EQ(gates, res.net.gate_count()) << tc.name;
  }
}

TEST(AttributionTest, LedgerJsonIsDeterministicAcrossRuns) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  const netlist::Sta sta(lib);
  const auto tc = designs::all_testcases()[3];  // D4: the big width-pruning win
  std::string a, b;
  for (std::string* out : {&a, &b}) {
    const auto res = synth::run_flow(tc.graph, synth::Flow::NewMerge);
    const auto ledger = synth::build_ledger(res, lib, sta.analyze(res.net));
    ledger.to_json(*out);
  }
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Flow-vs-flow diff
// ---------------------------------------------------------------------------

TEST(LedgerDiffTest, NewVsOldNamesADifferingDecisionWhereTable1Differs) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  // D4 is the paper's headline delta (39.67% delay reduction new vs old),
  // so the two flows must have decided at least one operator differently.
  const auto tc = designs::all_testcases()[3];
  const auto en = synth::explain_flow(tc.graph, synth::Flow::NewMerge, lib);
  const auto eo = synth::explain_flow(tc.graph, synth::Flow::OldMerge, lib);
  ASSERT_NE(en.timing.longest_path_ns, eo.timing.longest_path_ns);
  const auto diff = synth::diff_explanations(en, eo);
  EXPECT_FALSE(diff.entries.empty());
  std::string json;
  diff.to_json(json);
  EXPECT_NE(json.find("\"entries\""), std::string::npos);
}

TEST(LedgerDiffTest, FlowAgainstItselfIsEmpty) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  const auto tc = designs::all_testcases()[0];
  const auto a = synth::explain_flow(tc.graph, synth::Flow::NewMerge, lib);
  const auto b = synth::explain_flow(tc.graph, synth::Flow::NewMerge, lib);
  EXPECT_TRUE(synth::diff_explanations(a, b).entries.empty());
}

// ---------------------------------------------------------------------------
// Provenance never perturbs artifacts
// ---------------------------------------------------------------------------

TEST(ProvenanceNeutralityTest, VerilogIdenticalWithAndWithoutRecording) {
  const auto tc = designs::all_testcases()[1];
  // run_flow records into its own log; a second outer scope must not change
  // anything, and neither does recording at all vs. an obs-disabled build
  // (the tags are side metadata — asserted here via the exported artifact).
  const auto plain = synth::run_flow(tc.graph, synth::Flow::NewMerge);
  obs::prov::DecisionLog outer;
  obs::prov::DecisionScope scope(&outer);
  const auto recorded = synth::run_flow(tc.graph, synth::Flow::NewMerge);
  EXPECT_EQ(netlist::to_verilog(plain.net, "m"),
            netlist::to_verilog(recorded.net, "m"));
}

TEST(ProvenanceNeutralityTest, DotAndLedgerTextAreNonEmpty) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  const auto tc = designs::all_testcases()[0];
  const auto e = synth::explain_flow(tc.graph, synth::Flow::NewMerge, lib);
  const std::string dot = synth::provenance_dot(e);
  EXPECT_NE(dot.find("digraph provenance"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(e.ledger.to_text().find("worst path"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlowReport roll-up and export ordering
// ---------------------------------------------------------------------------

TEST(FlowReportProvenanceTest, TopDecisionsSerializeToJson) {
  const auto& lib = netlist::CellLibrary::tsmc025();
  const netlist::Sta sta(lib);
  const auto tc = designs::all_testcases()[3];
  auto res = synth::run_flow(tc.graph, synth::Flow::NewMerge);
  const auto ledger = synth::build_ledger(res, lib, sta.analyze(res.net));
  synth::attach_top_decisions(res.report, ledger);
  ASSERT_FALSE(res.report.top_decisions.empty());
  EXPECT_LE(res.report.top_decisions.size(), 3u);
  EXPECT_GT(res.report.top_decisions[0].delay_ns, 0.0);
  EXPECT_GT(res.report.top_decisions[0].share, 0.0);
  EXPECT_LE(res.report.top_decisions[0].share, 1.0 + 1e-9);
  std::string json;
  res.report.to_json(json);
  EXPECT_NE(json.find("\"top_decisions\""), std::string::npos);
  EXPECT_NE(json.find(res.report.top_decisions[0].label.substr(0, 5)),
            std::string::npos);
}

TEST(FlowReportProvenanceTest, StageExportOrderIsCanonical) {
  obs::FlowReport rep;
  // Stages recorded in a non-canonical order (as a paranoid check policy
  // produces: "check" begins before "cluster" ends up first in memory).
  for (const char* name : {"check", "synth", "opt", "cluster", "normalize"}) {
    obs::StageReport s;
    s.name = name;
    rep.stages.push_back(std::move(s));
  }
  std::string json;
  rep.to_json(json);
  const auto pos = [&](const char* name) {
    return json.find("\"name\":\"" + std::string(name) + "\"");
  };
  EXPECT_LT(pos("normalize"), pos("cluster"));
  EXPECT_LT(pos("cluster"), pos("check"));
  EXPECT_LT(pos("check"), pos("synth"));
  EXPECT_LT(pos("synth"), pos("opt"));
  // The in-memory order is untouched (obs_test relies on execution order).
  EXPECT_EQ(rep.stages.front().name, "check");
}

}  // namespace
}  // namespace dpmerge
