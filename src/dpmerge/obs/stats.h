#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "dpmerge/support/annotations.h"

namespace dpmerge::obs {

// ---------------------------------------------------------------------------
// Scoped stat collection (per unit of work, e.g. one run_flow call).
// ---------------------------------------------------------------------------

/// An ordered bag of named int64 counters. Not thread-safe by itself — a
/// sink is DPMERGE_THREAD_CONFINED: it belongs to the scope (and thread)
/// that installed it (DESIGN.md §12).
/// Names sort lexicographically, so any export is deterministic.
class DPMERGE_THREAD_CONFINED StatSink {
 public:
  void add(std::string_view name, std::int64_t v = 1) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      values_.emplace(std::string(name), v);
    } else {
      it->second += v;
    }
  }

  void set_max(std::string_view name, std::int64_t v) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      values_.emplace(std::string(name), v);
    } else if (v > it->second) {
      it->second = v;
    }
  }

  std::int64_t get(std::string_view name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  const std::map<std::string, std::int64_t, std::less<>>& values() const {
    return values_;
  }
  void clear() { values_.clear(); }

 private:
  std::map<std::string, std::int64_t, std::less<>> values_;
};

namespace detail {
// Function-local TLS instead of an extern thread_local variable: the
// pointer is constant-initialized (no guard on access), and inline
// definitions merge across TUs — avoiding the cross-TU TLS-wrapper path
// that UBSan flags under GCC.
inline StatSink*& t_sink() {
  thread_local StatSink* s = nullptr;
  return s;
}
}  // namespace detail

/// The calling thread's current sink, or nullptr when no StatScope is
/// active (then every stat hook is a TLS load and a branch).
inline StatSink* current_sink() { return detail::t_sink(); }

/// Installs a sink as the calling thread's collection target for the
/// lifetime of the scope. Nests; the previous sink is restored on exit.
class StatScope {
 public:
  explicit StatScope(StatSink* sink) : prev_(detail::t_sink()) {
    detail::t_sink() = sink;
  }
  ~StatScope() { detail::t_sink() = prev_; }
  StatScope(const StatScope&) = delete;
  StatScope& operator=(const StatScope&) = delete;

 private:
  StatSink* prev_;
};

/// Instrumentation hooks: count into the current scope's sink, if any.
inline void stat_add(std::string_view name, std::int64_t v = 1) {
  if (StatSink* s = current_sink()) s->add(name, v);
}
inline void stat_max(std::string_view name, std::int64_t v) {
  if (StatSink* s = current_sink()) s->set_max(name, v);
}

}  // namespace dpmerge::obs
