#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dpmerge/support/annotations.h"

/// Decision provenance (dpmerge::obs::prov) — the "why" layer of the flow.
///
/// The clusterers record every candidate merge they evaluate into a
/// DecisionLog (per-edge evidence plus one node-level verdict per operator
/// per iteration), the synthesizer tags every netlist gate with the DFG
/// node whose synthesis created it, and the attribution pass walks the STA
/// worst path billing each segment's delay back to the decision that put
/// its gate there. The resulting Ledger names the exact merge decisions a
/// design's critical path and area are owed to, and LedgerDiff names the
/// decisions on which two flows diverge.
/// Netlist tags are side metadata and never influence structure.

namespace dpmerge::obs::prov {

/// Stable identifier of one recorded decision: the index into its log, in
/// recording order. Deterministic for a deterministic workload.
struct DecisionId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const DecisionId&) const = default;
};

enum class Verdict : unsigned char {
  Accept,  ///< the operator merges into its consumer's cluster
  Reject,  ///< the operator roots its own cluster (break node)
};

std::string_view to_string(Verdict v);

/// One candidate merge decision, with the analysis evidence the firing rule
/// acted on. Evidence fields default to -1 ("not applicable to this rule").
struct Decision {
  DecisionId id;
  int iteration = 0;  ///< clusterer iteration (monotone across restarts)
  int node = -1;      ///< DFG node whose merge-into-consumer was decided
  int dst_node = -1;  ///< consumer node for per-edge decisions, else -1
  int edge = -1;      ///< edge considered for per-edge decisions, else -1
  std::string node_op;  ///< e.g. "Add#7" (operator kind + node id)
  std::string rule;     ///< dotted rule id, e.g. "cluster.safety2_precision"
  Verdict verdict = Verdict::Accept;

  // Analysis evidence (-1 = not applicable):
  int info_width = -1;     ///< clipped information content î(N) in bits
  int r_in = -1;           ///< required precision at the consumer port
  int exact_bits = -1;     ///< exact low bits through the edge (-1 = all)
  int natural_width = -1;  ///< DAC'98 width-only natural width (old merge)
  int node_width = -1;     ///< w(N)
  int edge_width = -1;     ///< w(e)
  int width_savings = 0;   ///< carrier bits the firing analysis proved idle

  /// "Add#7 it2 cluster.safety2_precision: reject (r_in=14 > exact=9)".
  std::string to_text() const;
  void to_json(std::string& out) const;
};

/// Append-only log of merge decisions for one flow run. Ids are assigned in
/// recording order; `final_for_node` resolves a DFG node to its last
/// node-level verdict — the decision that actually shaped the partition
/// (earlier iterations' verdicts were superseded by re-partitioning).
///
/// DPMERGE_THREAD_CONFINED: a log belongs to the thread whose DecisionScope
/// installed it; the clusterer records into it from its serial sweeps, in
/// node-id order.
class DPMERGE_THREAD_CONFINED DecisionLog {
 public:
  /// Stamps `d.id` and the current iteration counter, stores it, returns
  /// the id. Node-level decisions (dst_node < 0) update the final-verdict
  /// index for `d.node`.
  DecisionId add(Decision d);

  /// Advances the iteration counter (monotone; restarted clusterer runs
  /// keep counting so "final" stays well-defined across feedback rounds).
  void next_iteration() { ++iteration_; }
  int iteration() const { return iteration_; }

  void clear();
  bool empty() const { return decisions_.empty(); }
  std::size_t size() const { return decisions_.size(); }
  const std::vector<Decision>& decisions() const { return decisions_; }
  const Decision& decision(DecisionId id) const {
    return decisions_[static_cast<std::size_t>(id.value)];
  }

  /// The last node-level decision recorded for `node` (invalid if none).
  DecisionId final_for_node(int node) const;

  /// All final node-level decisions, ordered by node id.
  std::vector<DecisionId> final_decisions() const;

  /// The final iteration's reject decisions (node-level and per-edge) for
  /// `node`, in recording order — the reasons the node did not merge.
  std::vector<DecisionId> rejects_for_node(int node) const;

  void to_json(std::string& out) const;

 private:
  std::vector<Decision> decisions_;
  std::map<int, int> final_by_node_;  // node -> decision index (last wins)
  int iteration_ = 0;
};

// ---------------------------------------------------------------------------
// Recording scope (thread-local).
// ---------------------------------------------------------------------------

namespace detail {
inline DecisionLog*& t_decision_log() {
  thread_local DecisionLog* log = nullptr;
  return log;
}
}  // namespace detail

/// The calling thread's active decision log, or nullptr when no
/// DecisionScope is live (every recording site is then a TLS load + branch).
/// The returned pointer is thread-confined — never hand it to pool tasks.
inline DecisionLog* current_log() { return detail::t_decision_log(); }

/// Installs a log as the calling thread's recording target for the scope's
/// lifetime. Nests; the previous log is restored on exit.
class DecisionScope {
 public:
  explicit DecisionScope(DecisionLog* log) : prev_(detail::t_decision_log()) {
    detail::t_decision_log() = log;
  }
  ~DecisionScope() { detail::t_decision_log() = prev_; }
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

 private:
  DecisionLog* prev_;
};

// ---------------------------------------------------------------------------
// Per-decision delay/area ledger.
// ---------------------------------------------------------------------------

/// One ledger row: a decision (or the untagged bucket) with the critical-
/// path delay and cell area billed to it.
struct LedgerEntry {
  DecisionId decision;     ///< invalid for owners without a recorded decision
  int node = -1;           ///< owner DFG node; -1 for the untagged bucket
  std::string label;       ///< e.g. "Add#7" or "(untagged)"
  std::string rule;        ///< firing rule of the decision, or ""
  std::string verdict;     ///< "accept"/"reject"/"" (no decision)
  double delay_ns = 0.0;   ///< worst-path delay billed to this owner
  double area = 0.0;       ///< total cell area of gates owned
  std::int64_t gates = 0;  ///< gates owned
  std::int64_t path_gates = 0;  ///< worst-path gates owned
};

/// Per-decision delay/area accounting of one synthesized flow. Entries are
/// sorted by billed delay (descending), ties by owner node id, so exports
/// are deterministic. `attributed_ns` telescopes back to `total_delay_ns`
/// up to floating-point rounding (tested).
struct Ledger {
  std::string design;
  std::string flow;
  double total_delay_ns = 0.0;  ///< STA worst path
  double attributed_ns = 0.0;   ///< sum of entry delays
  double total_area = 0.0;
  std::vector<LedgerEntry> entries;

  /// Entries in order, largest delay share first.
  void to_json(std::string& out) const;
  std::string to_text() const;
};

/// One node on which two flows decided differently (different verdict or
/// different firing rule), with the delay each flow's path bills to it.
struct DiffEntry {
  int node = -1;
  std::string label;
  std::string rule_a, rule_b;
  std::string verdict_a, verdict_b;
  double delay_a_ns = 0.0, delay_b_ns = 0.0;
};

/// Flow-vs-flow decision diff: names the decisions where the flows diverge
/// and what each divergence costs on the respective critical paths.
struct LedgerDiff {
  std::string flow_a, flow_b;
  double delay_a_ns = 0.0, delay_b_ns = 0.0;
  std::vector<DiffEntry> entries;  ///< sorted by max billed delay, desc

  void to_json(std::string& out) const;
  std::string to_text() const;
};

}  // namespace dpmerge::obs::prov
