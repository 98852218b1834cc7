#pragma once

// Span recorder for the traced run. Spans are opened by the benchmark
// around its own calls into dpmerge's public functions, so the library is
// timed from outside only. They stay in memory until the run ends, when
// `self_ms_by_name` rolls them up and `chrome_trace` dumps them.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dpbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int op = -1;      ///< operation the span belongs to (its trace id)
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

class Tracer {
 public:
  /// Spans opened from now on belong to operation `op`, named `label`.
  void set_op(int op, std::string label) {
    op_ = op;
    labels_.emplace_back(op, std::move(label));
  }

  int begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, op_, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int idx) {
    spans_[static_cast<std::size_t>(idx)].t1_ns = now_ns();
    stack_.pop_back();
  }

  /// Records a child of the innermost open span whose duration the library
  /// measured itself (a FlowReport stage). Only the summed duration is
  /// known, so such children are laid end to end from the parent's start.
  void add_child(const char* name, std::int64_t dur_ns) {
    const int parent = stack_.back();
    const SpanRecord& last = spans_.back();
    const std::int64_t t0 =
        last.parent == parent ? last.t1_ns
                              : spans_[static_cast<std::size_t>(parent)].t0_ns;
    spans_.push_back({name, parent, op_, t0, t0 + dur_ns});
  }

  /// Number of spans recorded under `name`.
  int count(const char* name) const {
    int n = 0;
    for (const SpanRecord& s : spans_) n += std::string_view(s.name) == name;
    return n;
  }

  /// Summed self time (duration minus the children's) per span name, in ms.
  std::map<std::string, double> self_ms_by_name() const {
    std::map<std::string, double> out;
    for (const SpanRecord& s : spans_) {
      out[s.name] += duration_ms(s);
      if (s.parent >= 0) {
        out[spans_[static_cast<std::size_t>(s.parent)].name] -= duration_ms(s);
      }
    }
    return out;
  }

  /// Summed duration (children included) per span name, in ms.
  std::map<std::string, double> total_ms_by_name() const {
    std::map<std::string, double> out;
    for (const SpanRecord& s : spans_) out[s.name] += duration_ms(s);
    return out;
  }

  /// Chrome trace-event JSON: one "X" event per span, one tid per
  /// operation, named after the operation. Labels are plain identifiers.
  std::string chrome_trace() const {
    std::string out = "{\"traceEvents\":[";
    for (const auto& [op, label] : labels_) {
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
             std::to_string(op) + ",\"args\":{\"name\":\"" + label + "\"}},\n";
    }
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      if (i) out += ",\n";
      out += "{\"name\":\"" + std::string(s.name) +
             "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.op) +
             ",\"ts\":" + std::to_string((s.t0_ns - base) / 1000) +
             ",\"dur\":" + std::to_string((s.t1_ns - s.t0_ns) / 1000) + "}";
    }
    out += "]}\n";
    return out;
  }

 private:
  static double duration_ms(const SpanRecord& s) {
    return static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
  }

  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  std::vector<std::pair<int, std::string>> labels_;
  int op_ = -1;
};

/// RAII span; does nothing when `t` is null (the untraced path).
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), idx_(t ? t->begin(name) : -1) {}
  ~Span() {
    if (t_) t_->end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

}  // namespace dpbench
