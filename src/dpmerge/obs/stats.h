#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "dpmerge/obs/trace.h"  // compiled_in()
#include "dpmerge/support/annotations.h"
#include "dpmerge/support/mutex.h"

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
#ifndef DPMERGE_OBS_DISABLED
// Function-local TLS instead of an extern thread_local variable: the
// pointer is constant-initialized (no guard on access), and inline
// definitions merge across TUs — avoiding the cross-TU TLS-wrapper path
// that UBSan flags under GCC.
inline StatSink*& t_sink() {
  thread_local StatSink* s = nullptr;
  return s;
}
#endif
}  // namespace detail

/// The calling thread's current sink, or nullptr when no StatScope is
/// active (then every stat hook is a TLS load and a branch).
inline StatSink* current_sink() {
#ifdef DPMERGE_OBS_DISABLED
  return nullptr;
#else
  return detail::t_sink();
#endif
}

/// Installs a sink as the calling thread's collection target for the
/// lifetime of the scope. Nests; the previous sink is restored on exit.
class StatScope {
 public:
#ifndef DPMERGE_OBS_DISABLED
  explicit StatScope(StatSink* sink) : prev_(detail::t_sink()) {
    detail::t_sink() = sink;
  }
  ~StatScope() { detail::t_sink() = prev_; }
#else
  explicit StatScope(StatSink*) {}
#endif
  StatScope(const StatScope&) = delete;
  StatScope& operator=(const StatScope&) = delete;

 private:
#ifndef DPMERGE_OBS_DISABLED
  StatSink* prev_;
#endif
};

/// Instrumentation hooks: count into the current scope's sink, if any.
inline void stat_add(std::string_view name, std::int64_t v = 1) {
  if (StatSink* s = current_sink()) s->add(name, v);
}
inline void stat_max(std::string_view name, std::int64_t v) {
  if (StatSink* s = current_sink()) s->set_max(name, v);
}

// ---------------------------------------------------------------------------
// Process-global registry (named counters / gauges / histograms).
// ---------------------------------------------------------------------------

/// Monotonic counter; add() is one relaxed atomic RMW, safe from any thread.
///
/// Memory ordering (DESIGN.md §12): relaxed is sufficient because
/// increments are commutative and no other memory location is published
/// through a counter value. Reads while writers are live may lag
/// in-flight increments (each RMW itself is atomic and never lost); every
/// exporter in the library reads only after its worker threads have
/// quiesced (ThreadPool jobs complete before parallel_for returns, which
/// is a mu_ release/acquire edge), so exported totals are exact.
class Counter {
 public:
  void add(std::int64_t v = 1) { v_.fetch_add(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-written value. Thread-safe, but concurrent writers race by design —
/// use gauges for configuration-like values (lane counts, sizes), not for
/// anything that must aggregate deterministically.
///
/// Memory ordering: the std::atomic<double> store/load pair is relaxed on
/// purpose. A gauge publishes one self-contained value; nothing is ordered
/// "after" a gauge write, so the only guarantee needed is no torn values —
/// which the atomic provides at any ordering. Concurrent set() calls leave
/// one of the written values (unspecified which); that is the documented
/// last-writer-wins contract, not an ordering bug.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two-bucketed histogram of non-negative int64 samples: bucket i
/// counts samples in [2^(i-1), 2^i) (bucket 0 counts zeros and ones
/// together with bucket 1's lower bound, i.e. v < 2). Aggregation across
/// threads is commutative, so totals are schedule-independent.
///
/// Memory ordering: every bucket/count/sum RMW is relaxed — each is an
/// independent commutative accumulator, so the counter argument above
/// applies field-by-field. What relaxed does NOT give is a cross-field
/// snapshot: a reader racing observe() can see count already incremented
/// while sum still lacks the same sample (or vice versa). After writers
/// quiesce the three always telescope (count() samples summing to sum());
/// exports happen only then. reset() has the same caveat and is for tests.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void observe(std::int64_t v);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  /// The exclusive upper bound of the bucket holding the q-quantile sample
  /// (q in [0, 1]); 0 on an empty histogram. An upper bound, not an
  /// interpolation: with power-of-two buckets the error is at most 2x,
  /// which is what a latency histogram can honestly promise. Exact (and
  /// deterministic) after writers quiesce.
  std::int64_t percentile(double q) const;

  void reset();

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// Process-wide registry of named stats. Lookup takes a mutex (cache the
/// returned reference at hot sites); the returned references stay valid for
/// the process lifetime. Export is ordered by name — byte-identical for
/// identical workloads regardless of thread schedule (gauges excepted, see
/// above).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name) DPMERGE_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) DPMERGE_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) DPMERGE_EXCLUDES(mu_);

  /// `{"counters":{...},"gauges":{...},"histograms":{...}}`, keys sorted.
  void write_json(std::ostream& os) const DPMERGE_EXCLUDES(mu_);
  std::string json() const DPMERGE_EXCLUDES(mu_);

  /// Prometheus/OpenMetrics text exposition: counters as `counter`, gauges
  /// as `gauge`, histograms as cumulative-`le` `histogram` series with
  /// `_sum`/`_count`. Dots in names become underscores (`pool.task_us` →
  /// `dpmerge_pool_task_us`); output is ordered by name, so artifacts are
  /// byte-stable for identical workloads.
  void write_prometheus(std::ostream& os) const DPMERGE_EXCLUDES(mu_);

  /// Zeroes every registered stat (references stay valid). For tests.
  void reset() DPMERGE_EXCLUDES(mu_);

 private:
  Registry() = default;

  /// Guards the name->stat maps (registration and export iteration). The
  /// returned Counter/Gauge/Histogram references are NOT guarded: they are
  /// stable for the process lifetime (unique_ptr targets never move) and
  /// internally atomic, so hot sites cache them and update lock-free.
  mutable support::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DPMERGE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      DPMERGE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DPMERGE_GUARDED_BY(mu_);
};

}  // namespace dpmerge::obs
