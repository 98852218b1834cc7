#include "dpmerge/synth/flow.h"

#include <array>
#include <cassert>
#include <optional>

#include "dpmerge/check/check.h"
#include "dpmerge/obs/trace.h"
#include "dpmerge/synth/cluster_synth.h"
#include "dpmerge/transform/width_prune.h"

namespace dpmerge::synth {

using analysis::InfoAnalysis;
using cluster::Partition;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;
using netlist::Netlist;
using netlist::Signal;

std::string_view to_string(Flow f) {
  switch (f) {
    case Flow::NoMerge:
      return "no-merge";
    case Flow::OldMerge:
      return "old-merge";
    case Flow::NewMerge:
      return "new-merge";
  }
  return "?";
}

Netlist synthesize_partition(const Graph& g, const Partition& p,
                             const InfoAnalysis& ia,
                             const SynthOptions& opt) {
  Netlist net;
  std::vector<Signal> sig(static_cast<std::size_t>(g.node_count()));

  for (NodeId id : g.freeze().topo) {
    const Node& n = g.node(id);
    // Provenance: every gate created while synthesising this node's turn is
    // owned by it (cluster roots own their whole CSA tree + CPA). Side
    // metadata only — never changes the emitted structure.
    net.set_provenance_owner(id.value);
    auto& s = sig[static_cast<std::size_t>(id.value)];
    switch (n.kind) {
      case OpKind::Input: {
        for (int i = 0; i < n.width; ++i) s.bits.push_back(net.new_net());
        net.add_input(g.name(n), s);
        break;
      }
      case OpKind::Const:
        s = net.constant_signal(n.value);
        break;
      case OpKind::Output:
        s = operand_signal(net, g, n.in[0], sig);
        net.add_output(g.name(n), s);
        break;
      case OpKind::Extension:
        // Pure wiring: truncation selects bits, extension replicates the
        // top net or ties zeros.
        s = operand_signal(net, g, n.in[0], sig);
        break;
      case OpKind::LtS:
      case OpKind::LtU:
      case OpKind::Eq: {
        // Comparators are 1-bit cluster boundaries synthesised standalone.
        const Signal a = operand_signal(net, g, n.in[0], sig);
        const Signal b2 = operand_signal(net, g, n.in[1], sig);
        netlist::NetId r;
        if (n.kind == OpKind::Eq) {
          // Balanced OR tree over per-bit differences, then invert.
          std::vector<netlist::NetId> diffs;
          for (int i = 0; i < n.width; ++i) {
            diffs.push_back(net.xor2(a.bit(i), b2.bit(i)));
          }
          while (diffs.size() > 1) {
            std::vector<netlist::NetId> nxt;
            for (std::size_t i = 0; i + 1 < diffs.size(); i += 2) {
              nxt.push_back(net.or2(diffs[i], diffs[i + 1]));
            }
            if (diffs.size() % 2) nxt.push_back(diffs.back());
            diffs = std::move(nxt);
          }
          r = net.inv(diffs[0]);
        } else {
          // a < b  <=>  sign of the (w+1)-bit difference a - b.
          const Sign ext =
              n.kind == OpKind::LtS ? Sign::Signed : Sign::Unsigned;
          const Signal ae = net.resize(a, n.width + 1, ext);
          const Signal be = net.resize(b2, n.width + 1, ext);
          const Signal diff =
              cpa(net, opt.adder, ae, net.invert(be), net.const1());
          r = diff.msb();
        }
        s.bits.assign(static_cast<std::size_t>(n.width), net.const0());
        s.bits[0] = r;
        break;
      }
      default: {
        // Arithmetic operators materialise only at cluster roots; interior
        // members are absorbed into the root's CSA tree.
        const int ci = p.index_of(id);
        assert(ci >= 0);
        if (p.clusters[static_cast<std::size_t>(ci)].root == id) {
          s = synthesize_cluster(net, g, p, ci, ia, sig, opt.adder,
                                 opt.booth_multipliers);
        }
        break;
      }
    }
  }
  net.set_provenance_owner(-1);
  return net;
}

cluster::ClusterResult prepare_new_merge(Graph& g, obs::FlowScope* fs,
                                         int /*threads*/) {
  auto stage = [&](const char* name) {
    if (fs) fs->begin_stage(name, g.node_count(), g.edge_count());
  };
  auto done = [&] {
    if (fs) fs->end_stage(g.node_count(), g.edge_count());
  };
  stage("normalize");
  transform::normalize_widths(g);
  done();
  stage("cluster");
  auto cr = cluster::cluster_maximal(g);
  done();
  // Feed the rebalanced cluster-output bounds (Section 5.2) back into the
  // width transformations: a tighter bound can shrink the cluster root (and
  // everything required precision then caps), which can in turn merge more.
  for (int round = 0; round < 4; ++round) {
    stage("normalize");
    const auto stats = transform::normalize_widths(g, &cr.refinements);
    done();
    if (!stats.changed()) break;
    stage("cluster");
    auto next = cluster::cluster_maximal(g);
    done();
    // Carry earlier refinements forward (they remain valid claims).
    for (std::size_t i = 0; i < cr.refinements.size(); ++i) {
      if (!cr.refinements[i]) continue;
      if (i < next.refinements.size()) {
        next.refinements[i] = next.refinements[i]
                                  ? analysis::ic_meet(*next.refinements[i],
                                                      *cr.refinements[i])
                                  : cr.refinements[i];
      }
    }
    next.iterations += cr.iterations;
    next.per_iteration.insert(next.per_iteration.begin(),
                              cr.per_iteration.begin(),
                              cr.per_iteration.end());
    cr = std::move(next);
  }
  return cr;
}

void finalize_flow_report(obs::FlowReport& rep, const Graph& g,
                          const Partition& p, const Netlist& net,
                          const obs::StatSink& sink) {
  int arith = 0;
  for (const Node& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind)) ++arith;
  }
  rep.merge_decisions = arith - p.num_clusters();
  rep.csa_rows = sink.get("synth.csa.rows");
  rep.cpa_count = sink.get("synth.cpa.count");
  std::array<std::int64_t, netlist::kCellTypeCount> cells{};
  for (const netlist::Gate& gate : net.gates()) {
    ++cells[static_cast<std::size_t>(gate.type)];
  }
  rep.cells_by_type.clear();
  for (std::size_t t = 0; t < cells.size(); ++t) {
    if (cells[t] == 0) continue;
    rep.cells_by_type[std::string(
        netlist::to_string(static_cast<netlist::CellType>(t)))] = cells[t];
  }
}

FlowResult run_flow(const Graph& g, Flow flow, const SynthOptions& opt) {
  FlowResult res;
  res.graph = g;
  res.report.flow = std::string(to_string(flow));
  const bool checking = check::policy() != check::CheckPolicy::Off;
  res.report.check_policy = std::string(check::to_string(check::policy()));
  obs::Span span(flow == Flow::NewMerge   ? "flow.new-merge"
                 : flow == Flow::OldMerge ? "flow.old-merge"
                                          : "flow.no-merge");
  {
    obs::FlowScope fs(&res.report);
    // Decision provenance: every candidate merge the clusterer evaluates
    // for this flow lands in the result's log.
    obs::prov::DecisionScope decisions(&res.decisions);
    // RP for the post-cluster analysis lint; only NewMerge carries one out
    // of the clusterer, the fixed partitions get by with the IC lint alone.
    std::optional<analysis::RequiredPrecision> rp;
    InfoAnalysis ia;
    switch (flow) {
      case Flow::NoMerge:
        fs.begin_stage("cluster", res.graph.node_count(),
                       res.graph.edge_count());
        res.partition = cluster::cluster_none(res.graph);
        ia = analysis::compute_info_content(res.graph);
        fs.end_stage(res.graph.node_count(), res.graph.edge_count());
        break;
      case Flow::OldMerge:
        fs.begin_stage("cluster", res.graph.node_count(),
                       res.graph.edge_count());
        res.partition = cluster::cluster_leakage(res.graph);
        ia = analysis::compute_info_content(res.graph);
        fs.end_stage(res.graph.node_count(), res.graph.edge_count());
        break;
      case Flow::NewMerge: {
        auto cr = prepare_new_merge(res.graph, &fs);
        res.partition = std::move(cr.partition);
        res.cluster_iterations = cr.iterations;
        res.report.cluster_iterations = cr.iterations;
        for (const auto& it : cr.per_iteration) {
          res.report.iterations.push_back(
              {it.clusters, it.merged_nodes, it.refined_roots});
        }
        ia = std::move(cr.info);
        rp = std::move(cr.rp);
        break;
      }
    }
    if (checking) {
      // Post-cluster boundary: the (possibly normalized) graph plus the
      // analysis results the synthesizer is about to consume.
      fs.begin_stage("check", res.graph.node_count(), res.graph.edge_count());
      check::enforce(res.graph, "flow.cluster");
      check::enforce_analyses(res.graph, ia, rp ? &*rp : nullptr,
                              "flow.analyses");
      fs.end_stage(res.graph.node_count(), res.graph.edge_count());
    }
    fs.begin_stage("synth", res.graph.node_count(), res.graph.edge_count());
    res.net = synthesize_partition(res.graph, res.partition, ia, opt);
    fs.end_stage(res.net.gate_count(), res.net.net_count());
    if (checking) {
      // Post-synth boundary: the emitted netlist (resumes the check stage).
      fs.begin_stage("check", res.net.gate_count(), res.net.net_count());
      check::enforce(res.net, "flow.synth");
      fs.end_stage(res.net.gate_count(), res.net.net_count());
    }
    finalize_flow_report(res.report, res.graph, res.partition, res.net,
                         fs.sink());
  }  // ~FlowScope stamps total_us
  return res;
}

}  // namespace dpmerge::synth
