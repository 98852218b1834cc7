#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dpmerge/support/annotations.h"
#include "dpmerge/support/mutex.h"

namespace dpmerge::obs {

/// dpmerge::obs v2 — the flight recorder (DESIGN.md §14), the one event
/// sink of the obs subsystem.
///
/// A fixed-capacity, per-thread ring buffer of compact binary events that is
/// *always on*. The ring keeps the most recent kDefaultCapacity events per
/// thread, so when a run hangs, crashes or shows a tail-latency outlier
/// there is evidence to drain — the crash handler (crash.h) serialises it
/// into dpmerge-crash-<pid>.json.
///
/// Capture mode (set_capture) additionally appends every recorded event to
/// an unbounded per-thread vector. The artifact flags turn it on for the
/// whole run and render the one capture three ways: the Chrome trace
/// (`--trace`), the self/total call tree (`--profile`, profiler.h) and the
/// JSONL event log (`--events`). The ring is never resized for them.
///
/// Hot-path contract: recording is lock-free after a thread's first event —
/// one steady-clock read (done by the caller), a store into the calling
/// thread's own slot, and, while capturing, one append to that thread's own
/// vector. Thread slots live in a fixed-size table (never freed, never
/// moved), so the crash handler can walk them without taking any lock.
enum class FrKind : std::uint8_t {
  SpanBegin = 0,   ///< value unused
  SpanEnd = 1,     ///< value = duration in us
  Counter = 2,     ///< value = delta (e.g. stage RSS delta in KiB)
  TaskBegin = 3,   ///< value = pool job id, aux = task position; recorded
                   ///< when the task starts
  TaskEnd = 4,     ///< value = duration in us, aux = task position
  Mark = 5,        ///< point event (check failures, context switches)
};

std::string_view to_string(FrKind k);

/// One recorded event, 32 bytes. `name` always points at storage with
/// program lifetime: a string literal at the record site, or a string
/// interned via FlightRecorder::intern().
struct FrEvent {
  std::int64_t ts_us = 0;
  const char* name = nullptr;
  std::int64_t value = 0;
  FrKind kind = FrKind::Mark;
  std::uint16_t tid = 0;
  std::uint32_t aux = 0;
};

/// A thread's crash-time context, sampled (best-effort, without locks) by
/// the crash handler: the stack of currently-open spans plus a free-form
/// context label ("<bench>/<design>/<flow>", a sweep name, ...) set by the
/// unit of work executing on the thread.
struct FrThreadState {
  std::uint16_t tid = 0;
  std::string context;
  std::vector<std::string> span_stack;
  std::int64_t last_event_ts_us = 0;
};

class FlightRecorder {
 public:
  static constexpr int kMaxThreads = 256;
  static constexpr int kMaxSpanDepth = 64;
  static constexpr std::uint32_t kDefaultCapacity = 8192;

  /// The process-wide recorder. First use installs the thread-pool
  /// telemetry hook (support::set_pool_telemetry), so pool task
  /// dispatch/complete events flow in from every parallel_for job.
  static FlightRecorder& instance();

  /// Capture mode: while on, every record() also appends its event to the
  /// calling thread's unbounded capture vector, read back by
  /// drain_capture(). Off by default.
  void set_capture(bool on) { capture_.store(on, std::memory_order_relaxed); }
  bool capturing() const { return capture_.load(std::memory_order_relaxed); }

  /// Appends one event to the calling thread's ring (and, while capturing,
  /// to its capture). `name` must have program lifetime (literal or
  /// intern()ed).
  void record(FrKind kind, const char* name, std::int64_t ts_us,
              std::int64_t value = 0, std::uint32_t aux = 0);

  /// Span-stack bookkeeping for crash-time "where was every thread". The
  /// Span/FlowScope record sites call these alongside record().
  void push_span(const char* name);
  void pop_span();

  /// Sets the calling thread's free-form context label (truncated to 127
  /// bytes). Empty clears. Shows up in crash dumps and drained state.
  void set_thread_context(std::string_view ctx);

  /// The calling thread's recorder id (registers a slot on first use);
  /// 0 when the slot table is full.
  std::uint16_t local_tid();

  /// Copies `s` into the recorder's string arena and returns a pointer with
  /// program lifetime; repeated interns of equal strings return the same
  /// pointer. Takes a lock — intern once per dynamic name, not per event.
  const char* intern(std::string_view s) DPMERGE_EXCLUDES(mu_);

  /// Merges every thread's ring into one time-ordered vector. Exact after
  /// worker threads quiesce (the ThreadPool job handshake publishes their
  /// writes); a concurrent writer can at worst contribute a torn in-flight
  /// event, which drain() filters by dropping events with a null name.
  std::vector<FrEvent> drain() const;

  /// Merges every thread's capture into one time-ordered vector. Call only
  /// after worker threads quiesce: unlike the ring, a capture vector may
  /// reallocate under a concurrent writer.
  std::vector<FrEvent> drain_capture() const;

  /// Every registered thread's crash-time state (context + open spans).
  std::vector<FrThreadState> thread_states() const;

  /// Drops all buffered and captured events and span stacks (rings stay
  /// registered).
  void clear();

  /// Crash-path export: formats drained events + thread states as JSON
  /// fields (no surrounding braces) directly, without taking mu_. Only the
  /// string arena is read unlocked — interned pointers are never freed, so
  /// the worst case racing a writer is a missing newest event.
  void append_crash_json(std::string& out) const;

 private:
  struct Slot;

  FlightRecorder();
  Slot* local_slot();

  std::atomic<bool> capture_{false};

  /// Fixed slot table: registration appends (lock-free via nslots_), slots
  /// are never removed or reallocated — the crash handler walks
  /// [0, nslots_) without synchronisation.
  std::atomic<Slot*> slots_[kMaxThreads] = {};
  std::atomic<int> nslots_{0};

  mutable support::Mutex mu_;  ///< guards the intern arena only
  std::set<std::string> arena_ DPMERGE_GUARDED_BY(mu_);
};

/// Convenience wrapper mirroring obs::stat_add's shape.
void fr_mark(const char* name, std::int64_t value = 0);
inline void fr_set_thread_context(std::string_view ctx) {
  FlightRecorder::instance().set_thread_context(ctx);
}

/// Writes one JSON object per drained event (JSONL): the structured event
/// log export (`--events` on the bench harnesses).
void write_events_jsonl(std::ostream& os, const std::vector<FrEvent>& events);

/// Writes drained events as Chrome trace_event JSON (`--trace`), the format
/// chrome://tracing and https://ui.perfetto.dev load directly: SpanEnd and
/// TaskEnd become complete "X" events starting at `ts - dur`, Mark an
/// instant "i" and Counter a "C" sample; begin events are implied by their
/// ends and skipped.
void write_chrome_trace(std::ostream& os, const std::vector<FrEvent>& events);

}  // namespace dpmerge::obs
