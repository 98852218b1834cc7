#include "dpmerge/cluster/clusterer.h"

#include <algorithm>
#include <array>
#include <span>

#include "dpmerge/check/check.h"
#include "dpmerge/cluster/flatten.h"
#include "dpmerge/dfg/eval.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/obs/provenance.h"

namespace dpmerge::cluster {

using analysis::InfoAnalysis;
using analysis::InfoContent;
using analysis::RequiredPrecision;
using dfg::Edge;
using dfg::EdgeId;
using dfg::Graph;
using dfg::Node;
using dfg::NodeId;
using dfg::OpKind;

namespace {

constexpr int kExact = 1 << 28;  // "all bits of the delivered value match"

/// One resize stage of the exact-low-bits analysis behind Safety Condition
/// 2. `m` is how many low bits of the running value still equal the ideal
/// (claim-interpreted) contribution of node N; `c` is the running claim.
/// Truncation below the claim and *reinterpreting* extensions (extending a
/// lossy value, zero-padding signed content, or extending a value whose
/// signedness claim is vacuous with the opposite type) cap `m` — a consumer
/// needing more than `m` bits makes N unmergeable with it, because the
/// sum-of-addends form regenerates the ideal value, not the reinterpreted
/// one.
void resize_stage(InfoContent& c, int& m, int from, int to, Sign ext) {
  if (to <= from) {
    if (to < c.width) m = std::min(m, to);
    c = analysis::ic_resize(c, from, to, ext);
    return;
  }
  const bool exact =
      (c.width < from && c.sign == ext) ||
      (c.width < from && c.sign == Sign::Unsigned && ext == Sign::Signed) ||
      (c.width == from && c.sign == ext);
  // Widening a value whose upper structure is unknown or mismatched: the
  // bits at and above the old carrier no longer track the ideal value.
  if (!exact) m = std::min(m, from);
  c = analysis::ic_resize(c, from, to, ext);
}

/// Display name of a node for decision logs ("Add#7").
std::string node_label(const Node& n) {
  return std::string(dfg::to_string(n.kind)) + "#" + std::to_string(n.id.value);
}

/// The fixed reject-reason vocabulary of the break analysis; the
/// `cluster.reject.<reason>` stat keys are indexed by position here.
constexpr const char* kBreakReasons[] = {
    "no_consumer",
    "safety1_non_arith",
    "synth1_mul_operand",
    "safety2_precision",
};
constexpr int kNumBreakReasons =
    static_cast<int>(sizeof(kBreakReasons) / sizeof(kBreakReasons[0]));

/// Break verdict for one arithmetic node (Section 6 conditions, with the
/// corrections and the per-edge exactness generalisation documented in
/// DESIGN.md §2/§5). Every candidate merge evaluated lands in `plog` (when
/// non-null): one per-edge decision with the analysis evidence the rule
/// acted on, and one node-level verdict. Returns the index of the reject
/// reason in kBreakReasons, or -1 when the node merges into its consumer.
int evaluate_break(const Graph& g, const InfoAnalysis& ia,
                   const RequiredPrecision& rp, const Node& n,
                   obs::prov::DecisionLog* plog) {
  bool b = n.out.empty();
  int reason = b ? 0 : -1;
  for (EdgeId eid : n.out) {
    if (b) break;
    const Edge& e = g.edge(eid);
    const Node& dst = g.node(e.dst);
    int edge_reason = -1;
    int r_in = -1, exact = -1;
    // Safety Condition 1 (+ primary outputs end clusters).
    if (!dfg::is_arith_operator(dst.kind)) {
      edge_reason = 1;
    } else if (dst.kind == OpKind::Mul) {
      // Synthesizability Condition 1.
      edge_reason = 2;
    } else {
      // Safety Condition 2, exact-low-bits form: track how many low bits
      // of the operand delivered through e still equal N's ideal
      // contribution; the node-level clip and both edge resizes can each
      // cap it.
      InfoContent c = ia.out(n.id);
      int m = ia.intr(n.id).width > n.width ? n.width : kExact;
      resize_stage(c, m, n.width, e.width, e.sign);
      resize_stage(c, m, e.width, dst.width, e.sign);
      r_in = rp.r_in(e.dst);
      exact = m >= kExact ? -1 : m;
      if (r_in > m) edge_reason = 3;
    }
    if (edge_reason >= 0) {
      b = true;
      reason = edge_reason;
    }
    if (plog) {
      obs::prov::Decision d;
      d.node = n.id.value;
      d.dst_node = e.dst.value;
      d.edge = eid.value;
      d.node_op = node_label(n);
      d.rule = std::string("cluster.") +
               (edge_reason >= 0 ? kBreakReasons[edge_reason] : "merge");
      d.verdict = edge_reason >= 0 ? obs::prov::Verdict::Reject
                                   : obs::prov::Verdict::Accept;
      d.info_width = ia.out(n.id).width;
      d.r_in = r_in;
      d.exact_bits = exact;
      d.node_width = n.width;
      d.edge_width = e.width;
      d.width_savings = std::max(0, n.width - ia.out(n.id).width);
      plog->add(std::move(d));
    }
  }
  if (plog) {
    obs::prov::Decision d;
    d.node = n.id.value;
    d.node_op = node_label(n);
    d.rule = std::string("cluster.") +
             (reason >= 0 ? kBreakReasons[reason] : "merge");
    d.verdict = b ? obs::prov::Verdict::Reject : obs::prov::Verdict::Accept;
    d.info_width = ia.out(n.id).width;
    d.node_width = n.width;
    d.width_savings = std::max(0, n.width - ia.out(n.id).width);
    plog->add(std::move(d));
  }
  return reason;
}

/// Break-node analysis over the whole graph, in node-id order. Decisions go
/// to the current DecisionLog as they are made; the accept/reject tallies
/// are flushed to the `cluster.decisions.*` / `cluster.reject.*` stats once
/// at the end, creating only the keys that were hit.
std::vector<bool> compute_breaks(const Graph& g, const InfoAnalysis& ia,
                                 const RequiredPrecision& rp) {
  obs::prov::DecisionLog* plog = obs::prov::current_log();
  std::vector<bool> breaks(static_cast<std::size_t>(g.node_count()), false);
  std::int64_t accept = 0;
  std::int64_t by_reason[kNumBreakReasons] = {};
  for (const Node& n : g.nodes()) {
    if (!dfg::is_arith_operator(n.kind)) continue;
    const int reason = evaluate_break(g, ia, rp, n, plog);
    if (reason < 0) {
      ++accept;
      continue;
    }
    breaks[static_cast<std::size_t>(n.id.value)] = true;
    ++by_reason[reason];
  }
  if (obs::StatSink* sink = obs::current_sink()) {
    std::int64_t reject = 0;
    for (std::int64_t k : by_reason) reject += k;
    if (accept) sink->add("cluster.decisions.accept", accept);
    if (reject) sink->add("cluster.decisions.reject", reject);
    for (int k = 0; k < kNumBreakReasons; ++k) {
      if (by_reason[k]) {
        sink->add(std::string("cluster.reject.") + kBreakReasons[k],
                  by_reason[k]);
      }
    }
  }
  return breaks;
}

}  // namespace

ClusterResult cluster_maximal(const Graph& g, const ClusterOptions& opt) {
  obs::Span span("cluster.maximal");
  ClusterResult res;
  res.refinements.assign(static_cast<std::size_t>(g.node_count()),
                         std::nullopt);

  int arith_nodes = 0;
  for (const Node& n : g.nodes()) {
    if (dfg::is_arith_operator(n.kind)) ++arith_nodes;
  }

  constexpr int kMaxIterations = 16;
  const int rounds = opt.iterate_rebalancing ? kMaxIterations : 1;
  for (int iter = 0; iter < rounds; ++iter) {
    obs::Span iter_span("cluster.iteration");
    if (obs::prov::DecisionLog* plog = obs::prov::current_log()) {
      plog->next_iteration();
    }
    res.iterations = iter + 1;
    {
      obs::Span stage_span("cluster.analyses");
      res.info = analysis::compute_info_content(g, res.refinements);
      res.rp = analysis::compute_required_precision(g);
    }
    std::vector<bool> breaks;
    {
      obs::Span stage_span("cluster.breaks");
      breaks = compute_breaks(g, res.info, res.rp);
    }
    {
      obs::Span stage_span("cluster.partition");
      res.partition = partition_from_breaks(g, breaks);
    }
    res.per_iteration.push_back(
        {res.partition.num_clusters(),
         arith_nodes - res.partition.num_clusters(), 0});
    obs::stat_add("cluster.iterations");
    if (!opt.iterate_rebalancing) break;

    // Section 5.2 / Section 6 refinement: recompute each cluster output's
    // information content under the optimal (Huffman) operation ordering;
    // any tightening may dissolve a break in the next round.
    obs::Span bounds_span("cluster.bounds");
    const auto& clusters = res.partition.clusters;
    int refined = 0;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      const InfoContent h = rebalanced_cluster_bound(
          g, res.partition, static_cast<int>(i), res.info);
      const InfoContent cur = res.info.intr(clusters[i].root);
      if (h.width < cur.width) {
        auto& slot =
            res.refinements[static_cast<std::size_t>(clusters[i].root.value)];
        slot = slot.has_value() ? analysis::ic_meet(*slot, h) : h;
        ++refined;
      }
    }
    res.per_iteration.back().refined_roots = refined;
    obs::stat_add("cluster.refined_roots", refined);
    if (refined == 0) break;
  }
  check::enforce_analyses(g, res.info, &res.rp, "cluster.maximal");
  return res;
}

namespace {

/// The old algorithm's width-only algebra of `dfg::apply_op`: the width a
/// result needs from its operands' widths, not bounded by w(N).
struct NaturalWidthOps {
  using Value = int;
  int input(const Node& n) const { return n.width; }
  int constant(const Node& n) const { return n.width; }
  int neg(int a, int /*w*/) const { return a + 1; }
  int add(int a, int b, int /*w*/) const { return std::max(a, b) + 1; }
  int sub(int a, int b, int /*w*/) const { return std::max(a, b) + 1; }
  int mul(int a, int b, int /*w*/) const { return a + b; }
  int shl(int a, int s, int /*w*/) const { return a + s; }
  int lt(int /*a*/, int /*b*/, Sign /*s*/, int /*w*/) const { return 1; }
  int eq(int /*a*/, int /*b*/, int /*w*/) const { return 1; }
};

/// Width-only "natural width" of node `n`: what the old algorithm believes
/// the operator needs. Deliberately *local*, in the spirit of the DAC'98
/// leakage-of-bits criterion: an operand's width is the connection width
/// min{w(e), w(N)} — no propagation of smaller upstream content, no
/// signedness reasoning. This is exactly the pessimism the paper's
/// information-content analysis removes.
int natural_width(const Graph& g, const Node& n) {
  std::array<int, 2> operands{};  // every operator has at most two
  for (std::size_t p = 0; p < n.in.size(); ++p) {
    operands[p] = std::min(g.edge(n.in[p]).width, n.width);
  }
  return dfg::apply_op(n, std::span<const int>(operands.data(), n.in.size()),
                       NaturalWidthOps{});
}

}  // namespace

Partition cluster_leakage(const Graph& g) {
  obs::Span span("cluster.leakage");
  obs::prov::DecisionLog* plog = obs::prov::current_log();
  if (plog) plog->next_iteration();
  const auto rp = analysis::compute_required_precision(g);
  // The width-only criterion cannot see signedness reinterpretation
  // (zero-extension of signed content); any real tool has the RTL types and
  // breaks there too. Start from the minimal functionally-required break
  // set and add the width-pessimistic leakage breaks on top.
  std::vector<bool> brk =
      compute_breaks(g, analysis::compute_info_content(g), rp);
  for (const Node& n : g.nodes()) {
    if (!dfg::is_arith_operator(n.kind)) continue;
    bool b = n.out.empty();
    int max_r = 0;
    const int nat_n = natural_width(g, n);
    const char* leak_reason = nullptr;
    for (EdgeId eid : n.out) {
      if (b) break;
      const Edge& e = g.edge(eid);
      const Node& dst = g.node(e.dst);
      if (!dfg::is_arith_operator(dst.kind)) b = true;
      if (dst.kind == OpKind::Mul) b = true;
      const int r_d = rp.r_in(e.dst);
      max_r = std::max(max_r, r_d);
      // Leakage on the edge: the edge drops bits the node really produced
      // and a consumer widens the truncated value again.
      if (std::min(std::min(nat_n, n.width), r_d) > e.width) {
        b = true;
        leak_reason = "leakage_edge";
        if (plog) {
          obs::prov::Decision d;
          d.node = n.id.value;
          d.dst_node = e.dst.value;
          d.edge = eid.value;
          d.node_op = node_label(n);
          d.rule = "cluster.leakage_edge";
          d.verdict = obs::prov::Verdict::Reject;
          d.natural_width = nat_n;
          d.r_in = r_d;
          d.node_width = n.width;
          d.edge_width = e.width;
          d.width_savings = std::max(0, nat_n - n.width);
          plog->add(std::move(d));
        }
      }
    }
    // Leakage at the node: the operator's natural width exceeds its declared
    // width (bits leak) and some consumer requires more than it produces.
    if (!b && std::min(nat_n, max_r) > n.width) {
      b = true;
      leak_reason = "leakage_node";
    }
    // OR into the functionally-required break set seeded above.
    if (b && !brk[static_cast<std::size_t>(n.id.value)]) {
      brk[static_cast<std::size_t>(n.id.value)] = true;
      obs::stat_add("cluster.reject.leakage");
      // Leakage flipped this node's verdict: supersede the seed's
      // node-level accept with the width-only reject that really decided.
      if (plog) {
        obs::prov::Decision d;
        d.node = n.id.value;
        d.node_op = node_label(n);
        d.rule = std::string("cluster.") +
                 (leak_reason ? leak_reason : "leakage_node");
        d.verdict = obs::prov::Verdict::Reject;
        d.natural_width = nat_n;
        d.r_in = max_r;
        d.node_width = n.width;
        d.width_savings = std::max(0, nat_n - n.width);
        plog->add(std::move(d));
      }
    }
  }
  return partition_from_breaks(g, brk);
}

Partition cluster_none(const Graph& g) {
  if (obs::prov::DecisionLog* plog = obs::prov::current_log()) {
    plog->next_iteration();
    for (const Node& n : g.nodes()) {
      if (!dfg::is_arith_operator(n.kind)) continue;
      obs::prov::Decision d;
      d.node = n.id.value;
      d.node_op = node_label(n);
      d.rule = "cluster.no_merge_flow";
      d.verdict = obs::prov::Verdict::Reject;
      d.node_width = n.width;
      plog->add(std::move(d));
    }
  }
  std::vector<bool> brk(static_cast<std::size_t>(g.node_count()), true);
  return partition_from_breaks(g, brk);
}

}  // namespace dpmerge::cluster
