#include "dpmerge/obs/flow_report.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "dpmerge/obs/crash.h"
#include "dpmerge/obs/flight_recorder.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/memory.h"
#include "dpmerge/obs/trace.h"

namespace dpmerge::obs {

namespace {

void append_i64_map(std::string& out,
                    const std::map<std::string, std::int64_t>& m) {
  out += "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ",";
    first = false;
    json_append_quoted(out, k);
    out.append(":").append(std::to_string(v));
  }
  out += "}";
}

// Canonical pipeline position of a stage for JSON export. The in-memory
// `stages` vector keeps execution order (first-begin order), but that order
// depends on the check policy: with checks on, "check" begins between
// "cluster" and "synth"; with paranoid checks it first begins even earlier.
// Exported artifacts must not differ by check policy in *ordering*, so the
// emitters sort by pipeline rank (unknown stages go last, alphabetically).
int stage_rank(std::string_view name) {
  if (name == "normalize") return 0;
  if (name == "cluster") return 1;
  if (name == "check") return 2;
  if (name == "synth") return 3;
  if (name == "opt") return 4;
  return 100;
}

std::vector<const StageReport*> stages_in_export_order(
    const std::vector<StageReport>& stages) {
  std::vector<const StageReport*> out;
  out.reserve(stages.size());
  for (const StageReport& s : stages) out.push_back(&s);
  std::stable_sort(out.begin(), out.end(),
                   [](const StageReport* a, const StageReport* b) {
                     const int ra = stage_rank(a->name);
                     const int rb = stage_rank(b->name);
                     if (ra != rb) return ra < rb;
                     return a->name < b->name;
                   });
  return out;
}

}  // namespace

std::int64_t FlowReport::stage_time_us(std::string_view stage) const {
  for (const StageReport& s : stages) {
    if (s.name == stage) return s.elapsed_us;
  }
  return 0;
}

std::string FlowReport::to_text() const {
  std::ostringstream os;
  os << "flow " << flow;
  if (!design.empty()) os << " on " << design;
  if (!check_policy.empty() && check_policy != "off") {
    os << " [checks: " << check_policy << "]";
  }
  os << ": " << total_us << " us, " << cluster_iterations
     << " cluster iteration(s), " << merge_decisions << " operators merged, "
     << csa_rows << " CSA rows, " << cpa_count << " CPAs\n";
  for (const StageReport& s : stages) {
    os << "  stage " << s.name << ": " << s.elapsed_us << " us, "
       << s.in_nodes << "n/" << s.in_edges << "e -> " << s.out_nodes << "n/"
       << s.out_edges << "e\n";
    for (const auto& [k, v] : s.stats) {
      os << "    " << k << " = " << v << "\n";
    }
  }
  if (!cells_by_type.empty()) {
    os << "  cells:";
    for (const auto& [k, v] : cells_by_type) os << " " << k << "=" << v;
    os << "\n";
  }
  for (const auto& [k, v] : metrics) {
    os << "  " << k << " = " << json_number(v) << "\n";
  }
  for (const DecisionSummary& d : top_decisions) {
    os << "  decision " << d.label << ": " << json_number(d.delay_ns)
       << " ns (" << json_number(d.share * 100.0) << "% of worst path)\n";
  }
  return os.str();
}

void FlowReport::to_json(std::string& out, const StatsJsonOptions& opt) const {
  auto t = [&](std::int64_t us) { return opt.zero_times ? 0 : us; };
  out += "{\"design\":";
  json_append_quoted(out, design);
  out += ",\"flow\":";
  json_append_quoted(out, flow);
  out += ",\"check_policy\":";
  json_append_quoted(out, check_policy);
  out += ",\"total_us\":" + std::to_string(t(total_us));
  out += ",\"cluster_iterations\":" + std::to_string(cluster_iterations);
  out += ",\"merge_decisions\":" + std::to_string(merge_decisions);
  out += ",\"csa_rows\":" + std::to_string(csa_rows);
  out += ",\"cpa_count\":" + std::to_string(cpa_count);
  out += ",\"cells_by_type\":";
  append_i64_map(out, cells_by_type);
  const std::vector<const StageReport*> ordered =
      stages_in_export_order(stages);
  out += ",\"stage_times_us\":{";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (i) out += ",";
    json_append_quoted(out, ordered[i]->name);
    out += ":" + std::to_string(t(ordered[i]->elapsed_us));
  }
  out += "},\"iterations\":[";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    if (i) out += ",";
    out += "{\"clusters\":" + std::to_string(iterations[i].clusters) +
           ",\"merged_nodes\":" + std::to_string(iterations[i].merged_nodes) +
           ",\"refined_roots\":" +
           std::to_string(iterations[i].refined_roots) + "}";
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    if (!first) out += ",";
    first = false;
    json_append_quoted(out, k);
    out += ":" + json_number(v);
  }
  out += "},\"top_decisions\":[";
  for (std::size_t i = 0; i < top_decisions.size(); ++i) {
    const DecisionSummary& d = top_decisions[i];
    if (i) out += ",";
    out += "{\"label\":";
    json_append_quoted(out, d.label);
    out += ",\"delay_ns\":" + json_number(d.delay_ns);
    out += ",\"share\":" + json_number(d.share);
    out += "}";
  }
  out += "],\"stages\":[";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const StageReport& s = *ordered[i];
    if (i) out += ",";
    out += "{\"name\":";
    json_append_quoted(out, s.name);
    out += ",\"time_us\":" + std::to_string(t(s.elapsed_us));
    out += ",\"in_nodes\":" + std::to_string(s.in_nodes);
    out += ",\"in_edges\":" + std::to_string(s.in_edges);
    out += ",\"out_nodes\":" + std::to_string(s.out_nodes);
    out += ",\"out_edges\":" + std::to_string(s.out_edges);
    out += ",\"stats\":";
    append_i64_map(out, s.stats);
    out += "}";
  }
  out += "]}";
}

void write_stats_json(std::ostream& os, std::string_view bench_name,
                      std::uint64_t seed,
                      const std::vector<FlowReport>& reports,
                      const StatsJsonOptions& opt) {
  std::string out = "{\"bench\":";
  json_append_quoted(out, bench_name);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"deterministic\":";
  out += opt.zero_times ? "true" : "false";
  out += ",\"entries\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    out += i ? ",\n" : "\n";
    reports[i].to_json(out, opt);
  }
  out += "\n]}\n";
  os << out;
}

FlowScope::FlowScope(FlowReport* rep)
    : rep_(rep), scope_(&sink_), flow_t0_(now_us()) {}

FlowScope::~FlowScope() {
  if (in_stage_) end_stage();
  rep_->total_us = now_us() - flow_t0_;
}

void FlowScope::begin_stage(std::string name, std::int64_t in_nodes,
                            std::int64_t in_edges) {
  if (in_stage_) end_stage();
  in_stage_ = true;
  stage_base_ = {sink_.values().begin(), sink_.values().end()};
  stage_idx_ = rep_->stages.size();
  for (std::size_t i = 0; i < rep_->stages.size(); ++i) {
    if (rep_->stages[i].name == name) {
      stage_idx_ = i;
      break;
    }
  }
  if (stage_idx_ == rep_->stages.size()) {
    rep_->stages.push_back(StageReport{});
    StageReport& s = rep_->stages.back();
    s.name = std::move(name);
    s.in_nodes = in_nodes;
    s.in_edges = in_edges;
  }
  stage_t0_ = now_us();
  FlightRecorder& fr = FlightRecorder::instance();
  const std::string& sname = rep_->stages[stage_idx_].name;
  stage_fr_name_ = fr.intern("flow." + sname);
  fr.record(FrKind::SpanBegin, stage_fr_name_, stage_t0_);
  fr.push_span(stage_fr_name_);
  set_current_stage(fr.intern(sname));
  stage_rss_base_kb_ = MemorySampler::current_rss_kb();
}

void FlowScope::end_stage(std::int64_t out_nodes, std::int64_t out_edges) {
  if (!in_stage_) return;
  in_stage_ = false;
  const std::int64_t t1 = now_us();
  StageReport& s = rep_->stages[stage_idx_];
  s.elapsed_us += t1 - stage_t0_;
  s.out_nodes = out_nodes;
  s.out_edges = out_edges;
  // The stage's stats are the sink's growth since begin_stage.
  for (const auto& [k, v] : sink_.values()) {
    auto it = stage_base_.find(k);
    const std::int64_t delta = v - (it == stage_base_.end() ? 0 : it->second);
    if (delta != 0) s.stats[k] += delta;
  }
  FlightRecorder& fr = FlightRecorder::instance();
  // Stage memory delta rides as a counter event *inside* the stage span
  // (before SpanEnd), so the profiler attributes it to this stage.
  fr.record(FrKind::Counter, "stage.rss_delta_kb", t1,
            MemorySampler::current_rss_kb() - stage_rss_base_kb_);
  fr.record(FrKind::SpanEnd, stage_fr_name_, t1, t1 - stage_t0_);
  fr.pop_span();
  set_current_stage(nullptr);
}

}  // namespace dpmerge::obs
