#include "dpmerge/synth/explain.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace dpmerge::synth {

using netlist::PathAttribution;
using netlist::TimingReport;
using obs::prov::Decision;
using obs::prov::DecisionId;
using obs::prov::Ledger;
using obs::prov::LedgerDiff;
using obs::prov::LedgerEntry;

namespace {

std::string owner_label(const dfg::Graph& g, int owner) {
  if (owner < 0 || owner >= g.node_count()) return "(untagged)";
  const dfg::Node& n = g.node(dfg::NodeId{owner});
  std::string s(dfg::to_string(n.kind));
  s.append("#").append(std::to_string(owner));
  if (!g.name(n).empty()) s += " '" + g.name(n) + "'";
  return s;
}

}  // namespace

Ledger build_ledger(const FlowResult& fr, const netlist::CellLibrary& lib,
                    const TimingReport& timing) {
  Ledger ledger;
  ledger.design = fr.report.design;
  ledger.flow = fr.report.flow;
  ledger.total_delay_ns = timing.longest_path_ns;

  const PathAttribution attr =
      netlist::attribute_critical_path(fr.net, timing);
  const auto census = netlist::census_by_owner(fr.net, lib);

  // One entry per owner seen in either the census (area) or the worst path
  // (delay); owner -1 collects untagged gates (e.g. post-synthesis buffers).
  std::set<int> owners;
  for (const auto& [o, c] : census) owners.insert(o);
  for (const auto& [o, d] : attr.delay_by_owner) owners.insert(o);

  for (int o : owners) {
    LedgerEntry e;
    e.node = o;
    e.label = owner_label(fr.graph, o);
    e.decision = fr.decisions.final_for_node(o);
    if (e.decision.valid()) {
      const Decision& d = fr.decisions.decision(e.decision);
      e.rule = d.rule;
      e.verdict = std::string(obs::prov::to_string(d.verdict));
    }
    if (auto it = attr.delay_by_owner.find(o);
        it != attr.delay_by_owner.end()) {
      e.delay_ns = it->second;
    }
    if (auto it = attr.path_gates_by_owner.find(o);
        it != attr.path_gates_by_owner.end()) {
      e.path_gates = it->second;
    }
    if (auto it = census.find(o); it != census.end()) {
      e.gates = it->second.gates;
      e.area = it->second.area;
    }
    ledger.attributed_ns += e.delay_ns;
    ledger.total_area += e.area;
    ledger.entries.push_back(std::move(e));
  }
  std::sort(ledger.entries.begin(), ledger.entries.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              if (a.delay_ns != b.delay_ns) return a.delay_ns > b.delay_ns;
              return a.node < b.node;
            });
  return ledger;
}

Explanation explain_flow(const dfg::Graph& g, Flow flow,
                         const netlist::CellLibrary& lib,
                         const SynthOptions& opt) {
  Explanation e;
  e.result = run_flow(g, flow, opt);
  const netlist::Sta sta(lib);
  e.timing = sta.analyze(e.result.net);
  e.attribution = netlist::attribute_critical_path(e.result.net, e.timing);
  e.ledger = build_ledger(e.result, lib, e.timing);
  return e;
}

void attach_top_decisions(obs::FlowReport& rep, const Ledger& ledger, int n) {
  rep.top_decisions.clear();
  for (const LedgerEntry& e : ledger.entries) {
    if (static_cast<int>(rep.top_decisions.size()) >= n) break;
    if (e.delay_ns <= 0.0) break;  // entries are sorted by delay, desc
    obs::DecisionSummary s;
    s.label = e.label;
    if (!e.rule.empty()) s.label += " [" + e.rule + "]";
    s.delay_ns = e.delay_ns;
    s.share =
        ledger.total_delay_ns > 0 ? e.delay_ns / ledger.total_delay_ns : 0.0;
    rep.top_decisions.push_back(std::move(s));
  }
}

LedgerDiff diff_explanations(const Explanation& a, const Explanation& b) {
  LedgerDiff diff;
  diff.flow_a = a.ledger.flow;
  diff.flow_b = b.ledger.flow;
  diff.delay_a_ns = a.ledger.total_delay_ns;
  diff.delay_b_ns = b.ledger.total_delay_ns;

  auto billed = [](const Explanation& e, int node) {
    auto it = e.attribution.delay_by_owner.find(node);
    return it == e.attribution.delay_by_owner.end() ? 0.0 : it->second;
  };

  // Union of nodes with a final verdict in either flow. Arithmetic node ids
  // are shared between the flows: width transforms only append nodes, so a
  // node id names the same operator on both sides.
  std::set<int> nodes;
  for (DecisionId id : a.result.decisions.final_decisions()) {
    nodes.insert(a.result.decisions.decision(id).node);
  }
  for (DecisionId id : b.result.decisions.final_decisions()) {
    nodes.insert(b.result.decisions.decision(id).node);
  }

  for (int node : nodes) {
    const DecisionId da = a.result.decisions.final_for_node(node);
    const DecisionId db = b.result.decisions.final_for_node(node);
    obs::prov::DiffEntry e;
    e.node = node;
    e.label = owner_label(a.result.graph.node_count() > node
                              ? a.result.graph
                              : b.result.graph,
                          node);
    if (da.valid()) {
      const Decision& d = a.result.decisions.decision(da);
      e.rule_a = d.rule;
      e.verdict_a = std::string(obs::prov::to_string(d.verdict));
    }
    if (db.valid()) {
      const Decision& d = b.result.decisions.decision(db);
      e.rule_b = d.rule;
      e.verdict_b = std::string(obs::prov::to_string(d.verdict));
    }
    if (e.verdict_a == e.verdict_b && e.rule_a == e.rule_b) continue;
    e.delay_a_ns = billed(a, node);
    e.delay_b_ns = billed(b, node);
    diff.entries.push_back(std::move(e));
  }
  std::sort(diff.entries.begin(), diff.entries.end(),
            [](const obs::prov::DiffEntry& x, const obs::prov::DiffEntry& y) {
              const double mx = std::max(x.delay_a_ns, x.delay_b_ns);
              const double my = std::max(y.delay_a_ns, y.delay_b_ns);
              if (mx != my) return mx > my;
              return x.node < y.node;
            });
  return diff;
}

std::string provenance_dot(const Explanation& e) {
  // Colour-blind-friendly categorical palette, cycled per cluster.
  static const char* kPalette[] = {
      "#a6cee3", "#b2df8a", "#fdbf6f", "#cab2d6", "#fb9a99", "#ffff99",
      "#1f78b4", "#33a02c", "#ff7f00", "#6a3d9a", "#e31a1c", "#b15928",
  };
  constexpr int kPaletteSize = static_cast<int>(std::size(kPalette));

  const dfg::Graph& g = e.result.graph;
  const cluster::Partition& p = e.result.partition;
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "digraph provenance {\n"
     << "  rankdir=TB;\n"
     << "  node [fontname=\"Helvetica\", style=filled, fillcolor=white];\n"
     << "  label=\"" << e.ledger.design << " / " << e.ledger.flow
     << " — worst path " << e.timing.longest_path_ns
     << " ns (red outline = on critical path)\";\n";
  for (const dfg::Node& n : g.nodes()) {
    os << "  n" << n.id.value << " [label=\"" << dfg::to_string(n.kind) << "#"
       << n.id.value;
    if (!g.name(n).empty()) os << "\\n" << g.name(n);
    os << "\\nw=" << n.width;
    const int ci = p.index_of(n.id);
    if (ci >= 0 && p.clusters[static_cast<std::size_t>(ci)].root == n.id) {
      const DecisionId did = e.result.decisions.final_for_node(n.id.value);
      if (did.valid()) {
        os << "\\n" << e.result.decisions.decision(did).rule;
      }
    }
    os << "\"";
    if (ci >= 0) {
      os << ", fillcolor=\"" << kPalette[ci % kPaletteSize] << "\"";
      if (p.clusters[static_cast<std::size_t>(ci)].root == n.id) {
        os << ", shape=box";
      }
    } else {
      os << ", shape=ellipse, fillcolor=\"#eeeeee\"";
    }
    if (auto it = e.attribution.delay_by_owner.find(n.id.value);
        it != e.attribution.delay_by_owner.end() && it->second > 0.0) {
      os << ", color=red, penwidth=3, xlabel=\"" << it->second << " ns\"";
    }
    os << "];\n";
  }
  for (const dfg::Edge& ed : g.edges()) {
    os << "  n" << ed.src.value << " -> n" << ed.dst.value << " [label=\""
       << ed.width << (ed.sign == Sign::Signed ? "s" : "u") << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace dpmerge::synth
