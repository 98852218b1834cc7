#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dpmerge/obs/stats.h"

namespace dpmerge::obs {

/// Options for the JSON emitters below.
struct StatsJsonOptions {
  /// Zeroes every wall-clock field (total_us, stage times). All remaining
  /// fields are pure functions of the workload, so two runs of the same
  /// configuration produce byte-identical artifacts — the mode CI diffs and
  /// the determinism tests use (`--stats-deterministic` on the benches).
  bool zero_times = false;
};

/// One pipeline stage of a flow: elapsed wall time, the graph (or netlist)
/// size entering and leaving the stage, and the stat-sink counters that
/// accumulated while the stage ran.
struct StageReport {
  std::string name;
  std::int64_t elapsed_us = 0;
  std::int64_t in_nodes = 0;
  std::int64_t in_edges = 0;
  std::int64_t out_nodes = 0;
  std::int64_t out_edges = 0;
  std::map<std::string, std::int64_t> stats;
};

/// One clusterer iteration (the paper's "iterative maximal merging"): how
/// many clusters the partition had, how many arithmetic operators were
/// merged into a consumer's cluster, and how many cluster roots the Huffman
/// rebalancing refined this round.
struct IterationReport {
  std::int64_t clusters = 0;
  std::int64_t merged_nodes = 0;
  std::int64_t refined_roots = 0;
};

/// One line of the provenance ledger roll-up: a merge decision (or operator)
/// and the share of the STA worst path billed to it. Attached by
/// `synth::attach_top_decisions` after critical-path attribution runs.
struct DecisionSummary {
  std::string label;     ///< e.g. "Mul#4 [cluster.synth1_mul_operand]"
  double delay_ns = 0.0; ///< worst-path delay billed to this decision
  double share = 0.0;    ///< delay_ns / worst-path delay, in [0, 1]
};

/// Per-stage breakdown of one synthesis flow run, emitted by
/// `synth::run_flow` (hung off `FlowResult::report`) and serialised by the
/// bench harnesses into `--stats-json` artifacts.
struct FlowReport {
  std::string design;
  std::string flow;
  /// check::CheckPolicy active while the flow ran ("off"/"errors"/"paranoid").
  std::string check_policy = "off";
  std::int64_t total_us = 0;

  // Roll-ups across the whole flow (also derivable from `stages`, kept flat
  // for machine consumers).
  std::int64_t cluster_iterations = 0;
  std::int64_t merge_decisions = 0;  ///< operators merged into a consumer
  std::int64_t csa_rows = 0;         ///< addend rows over all CSA trees
  std::int64_t cpa_count = 0;        ///< final carry-propagate adders built
  std::map<std::string, std::int64_t> cells_by_type;
  std::vector<IterationReport> iterations;
  std::vector<StageReport> stages;
  /// Bench-attached result metrics (delay_ns, area, ...), deterministic.
  std::map<std::string, double> metrics;
  /// Largest worst-path delay contributors by merge decision, attached by
  /// the explain/bench harnesses (empty when attribution never ran).
  std::vector<DecisionSummary> top_decisions;

  std::int64_t stage_time_us(std::string_view stage) const;

  /// Human-readable multi-line breakdown.
  std::string to_text() const;

  /// One JSON object (no trailing newline), keys in fixed order.
  void to_json(std::string& out, const StatsJsonOptions& opt = {}) const;
};

/// The `--stats-json` artifact: bench name, seed, and one entry per
/// (design x flow) cell in the order the bench stored them.
void write_stats_json(std::ostream& os, std::string_view bench_name,
                      std::uint64_t seed,
                      const std::vector<FlowReport>& reports,
                      const StatsJsonOptions& opt = {});

/// Builds a FlowReport while a flow runs: installs a StatScope around the
/// whole flow and splits the sink's counters into per-stage deltas.
/// Stage boundaries also emit flight-recorder spans ("flow.<stage>").
class FlowScope {
 public:
  explicit FlowScope(FlowReport* rep);
  ~FlowScope();
  FlowScope(const FlowScope&) = delete;
  FlowScope& operator=(const FlowScope&) = delete;

  /// Begins (or, if a stage of this name already exists, resumes) a stage.
  /// Resuming accumulates time and stat deltas into the existing entry, so
  /// a flow that alternates normalize/cluster rounds still reports exactly
  /// one stage per name.
  void begin_stage(std::string name, std::int64_t in_nodes = 0,
                   std::int64_t in_edges = 0);
  void end_stage(std::int64_t out_nodes = 0, std::int64_t out_edges = 0);

  StatSink& sink() { return sink_; }

 private:
  FlowReport* rep_;
  StatSink sink_;
  StatScope scope_;
  std::map<std::string, std::int64_t> stage_base_;
  std::size_t stage_idx_ = 0;
  std::int64_t flow_t0_ = 0;
  std::int64_t stage_t0_ = 0;
  bool in_stage_ = false;
  // Flight-recorder bookkeeping for the open stage: interned span name
  // ("flow.<stage>") and the RSS baseline for the stage's memory delta.
  const char* stage_fr_name_ = nullptr;
  std::int64_t stage_rss_base_kb_ = 0;
};

}  // namespace dpmerge::obs
