#include "dpmerge/obs/flight_recorder.h"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "dpmerge/obs/crash.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/trace.h"
#include "dpmerge/support/thread_pool.h"

namespace dpmerge::obs {

std::string_view to_string(FrKind k) {
  switch (k) {
    case FrKind::SpanBegin:
      return "span_begin";
    case FrKind::SpanEnd:
      return "span_end";
    case FrKind::Counter:
      return "counter";
    case FrKind::TaskBegin:
      return "task_begin";
    case FrKind::TaskEnd:
      return "task_end";
    case FrKind::Mark:
      return "mark";
  }
  return "?";
}

/// One thread's recording state. Allocated on the thread's first event,
/// registered into the fixed slot table, and never freed or moved — the
/// crash handler may walk the table at any instant from any thread.
struct FlightRecorder::Slot {
  static constexpr std::uint32_t kMask = kDefaultCapacity - 1;
  static_assert((kDefaultCapacity & kMask) == 0, "capacity is a power of two");

  explicit Slot(std::uint16_t id) : tid(id), ring(kDefaultCapacity) {
    context[0] = '\0';
  }

  std::uint16_t tid;
  std::vector<FrEvent> ring;
  /// Next write position; events live at [head - min(head, cap), head).
  /// Written only by the owning thread; read by drain()/the crash handler.
  std::atomic<std::uint64_t> head{0};
  /// Capture-mode copy of every event, owner-appended; read by
  /// drain_capture() after the writers quiesce, never by the crash handler.
  std::vector<FrEvent> captured;

  /// Crash-context fields: owner-written, reader-tolerant (a torn read
  /// yields at worst a garbled label, never an invalid pointer — span_stack
  /// holds only program-lifetime strings and the terminating NUL at
  /// context[127] is never overwritten).
  char context[128];
  const char* span_stack[kMaxSpanDepth] = {};
  std::atomic<int> span_depth{0};
};

namespace {

std::atomic<std::uint16_t> g_next_tid{1};

/// Thread-pool telemetry sink: turns the support-layer hook calls into
/// flight-recorder events. Installed once by FlightRecorder's constructor
/// (support cannot depend on obs, so the pool exposes a hook struct instead
/// of calling us directly).
void pool_job_telemetry(std::uint64_t job, int tasks) {
  FlightRecorder::instance().record(FrKind::Mark, "pool.job", now_us(),
                                    static_cast<std::int64_t>(job),
                                    static_cast<std::uint32_t>(tasks));
}

void pool_task_begin_telemetry(std::uint64_t job, int pos,
                               std::int64_t t0_us) {
  FlightRecorder::instance().record(FrKind::TaskBegin, "pool.task", t0_us,
                                    static_cast<std::int64_t>(job),
                                    static_cast<std::uint32_t>(pos));
}

void pool_task_end_telemetry(std::uint64_t /*job*/, int pos,
                             std::int64_t t0_us, std::int64_t dur_us) {
  FlightRecorder::instance().record(FrKind::TaskEnd, "pool.task",
                                    t0_us + dur_us, dur_us,
                                    static_cast<std::uint32_t>(pos));
}

}  // namespace

FlightRecorder::FlightRecorder() {
  static const support::PoolTelemetryHooks hooks{
      pool_job_telemetry, pool_task_begin_telemetry, pool_task_end_telemetry};
  support::set_pool_telemetry(&hooks);
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder fr;
  return fr;
}

FlightRecorder::Slot* FlightRecorder::local_slot() {
  thread_local Slot* slot = [this]() -> Slot* {
    const int idx = nslots_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxThreads) return nullptr;  // table full: thread records nothing
    auto* s = new Slot(g_next_tid.fetch_add(1, std::memory_order_relaxed));
    slots_[idx].store(s, std::memory_order_release);
    install_crash_altstack();
    return s;
  }();
  return slot;
}

void FlightRecorder::record(FrKind kind, const char* name, std::int64_t ts_us,
                            std::int64_t value, std::uint32_t aux) {
  Slot* s = local_slot();
  if (s == nullptr) return;
  const std::uint64_t h = s->head.load(std::memory_order_relaxed);
  FrEvent& e = s->ring[static_cast<std::size_t>(h) & Slot::kMask];
  e.ts_us = ts_us;
  e.value = value;
  e.kind = kind;
  e.tid = s->tid;
  e.aux = aux;
  e.name = name;  // last: a racing reader skips entries with a null name
  s->head.store(h + 1, std::memory_order_release);
  if (capture_.load(std::memory_order_relaxed)) s->captured.push_back(e);
}

void FlightRecorder::push_span(const char* name) {
  Slot* s = local_slot();
  if (s == nullptr) return;
  const int d = s->span_depth.load(std::memory_order_relaxed);
  if (d < kMaxSpanDepth) s->span_stack[d] = name;
  s->span_depth.store(d + 1, std::memory_order_release);
}

void FlightRecorder::pop_span() {
  Slot* s = local_slot();
  if (s == nullptr) return;
  const int d = s->span_depth.load(std::memory_order_relaxed);
  if (d > 0) s->span_depth.store(d - 1, std::memory_order_release);
}

void FlightRecorder::set_thread_context(std::string_view ctx) {
  Slot* s = local_slot();
  if (s == nullptr) return;
  const std::size_t n = std::min(ctx.size(), sizeof(s->context) - 1);
  std::memcpy(s->context, ctx.data(), n);
  s->context[n] = '\0';
}

std::uint16_t FlightRecorder::local_tid() {
  Slot* s = local_slot();
  return s != nullptr ? s->tid : 0;
}

void fr_mark(const char* name, std::int64_t value) {
  FlightRecorder::instance().record(FrKind::Mark, name, now_us(), value);
}

const char* FlightRecorder::intern(std::string_view s) {
  support::MutexLock lock(mu_);
  return arena_.emplace(s).first->c_str();
}

namespace {

void sort_by_time(std::vector<FrEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FrEvent& a, const FrEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });
}

}  // namespace

std::vector<FrEvent> FlightRecorder::drain() const {
  std::vector<FrEvent> out;
  const int n = std::min(nslots_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxThreads));
  for (int i = 0; i < n; ++i) {
    const Slot* s = slots_[i].load(std::memory_order_acquire);
    if (s == nullptr) continue;
    const std::uint64_t head = s->head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, kDefaultCapacity);
    for (std::uint64_t k = head - count; k < head; ++k) {
      const FrEvent& e = s->ring[static_cast<std::size_t>(k) & Slot::kMask];
      if (e.name != nullptr) out.push_back(e);
    }
  }
  sort_by_time(out);
  return out;
}

std::vector<FrEvent> FlightRecorder::drain_capture() const {
  std::vector<FrEvent> out;
  const int n = std::min(nslots_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxThreads));
  for (int i = 0; i < n; ++i) {
    const Slot* s = slots_[i].load(std::memory_order_acquire);
    if (s != nullptr) {
      out.insert(out.end(), s->captured.begin(), s->captured.end());
    }
  }
  sort_by_time(out);
  return out;
}

std::vector<FrThreadState> FlightRecorder::thread_states() const {
  std::vector<FrThreadState> out;
  const int n = std::min(nslots_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxThreads));
  for (int i = 0; i < n; ++i) {
    const Slot* s = slots_[i].load(std::memory_order_acquire);
    if (s == nullptr) continue;
    FrThreadState st;
    st.tid = s->tid;
    st.context.assign(s->context,
                      strnlen(s->context, sizeof(s->context) - 1));
    const int depth =
        std::min(s->span_depth.load(std::memory_order_acquire),
                 static_cast<int>(kMaxSpanDepth));
    for (int d = 0; d < depth; ++d) {
      const char* sp = s->span_stack[d];
      if (sp != nullptr) st.span_stack.emplace_back(sp);
    }
    const std::uint64_t head = s->head.load(std::memory_order_acquire);
    if (head > 0) {
      const FrEvent& last =
          s->ring[static_cast<std::size_t>(head - 1) & Slot::kMask];
      st.last_event_ts_us = last.ts_us;
    }
    out.push_back(std::move(st));
  }
  return out;
}

void FlightRecorder::clear() {
  const int n = std::min(nslots_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxThreads));
  for (int i = 0; i < n; ++i) {
    Slot* s = slots_[i].load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (FrEvent& e : s->ring) e.name = nullptr;
    s->head.store(0, std::memory_order_release);
    s->captured.clear();
    s->span_depth.store(0, std::memory_order_release);
  }
}

namespace {

void append_event_json(std::string& out, const FrEvent& e) {
  out += "{\"ts_us\":" + std::to_string(e.ts_us);
  out += ",\"tid\":" + std::to_string(e.tid);
  out += ",\"kind\":";
  json_append_quoted(out, to_string(e.kind));
  out += ",\"name\":";
  json_append_quoted(out, e.name != nullptr ? e.name : "");
  out += ",\"value\":" + std::to_string(e.value);
  if (e.aux != 0) out += ",\"aux\":" + std::to_string(e.aux);
  out += "}";
}

}  // namespace

void FlightRecorder::append_crash_json(std::string& out) const {
  out += "\"threads\":[";
  const auto states = thread_states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const FrThreadState& st = states[i];
    if (i != 0) out += ",";
    out += "{\"tid\":" + std::to_string(st.tid);
    out += ",\"context\":";
    json_append_quoted(out, st.context);
    out += ",\"span_stack\":[";
    for (std::size_t d = 0; d < st.span_stack.size(); ++d) {
      if (d != 0) out += ",";
      json_append_quoted(out, st.span_stack[d]);
    }
    out += "],\"last_event_ts_us\":" + std::to_string(st.last_event_ts_us);
    out += "}";
  }
  out += "],\"events\":[";
  const auto events = drain();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ",";
    append_event_json(out, events[i]);
  }
  out += "]";
}

void write_events_jsonl(std::ostream& os, const std::vector<FrEvent>& events) {
  std::string line;
  for (const FrEvent& e : events) {
    line.clear();
    append_event_json(line, e);
    line += "\n";
    os << line;
  }
}

void write_chrome_trace(std::ostream& os, const std::vector<FrEvent>& events) {
  os << "{\"traceEvents\":[";
  bool first = true;
  std::string line;
  for (const FrEvent& e : events) {
    std::int64_t ts = e.ts_us;
    const char* ph = nullptr;
    switch (e.kind) {
      case FrKind::SpanEnd:
      case FrKind::TaskEnd:
        ts -= e.value;
        ph = "\"X\"";
        break;
      case FrKind::Mark:
        ph = "\"i\",\"s\":\"t\"";
        break;
      case FrKind::Counter:
        ph = "\"C\"";
        break;
      case FrKind::SpanBegin:
      case FrKind::TaskBegin:
        continue;
    }
    line.clear();
    line += first ? "\n" : ",\n";
    first = false;
    line += "{\"name\":";
    json_append_quoted(line, e.name);
    line += ",\"cat\":\"dpmerge\",\"ph\":";
    line += ph;
    line += ",\"ts\":" + std::to_string(ts);
    if (e.kind == FrKind::SpanEnd || e.kind == FrKind::TaskEnd) {
      line += ",\"dur\":" + std::to_string(e.value);
    } else {
      line += ",\"args\":{\"value\":" + std::to_string(e.value) + "}";
    }
    line += ",\"pid\":1,\"tid\":" + std::to_string(e.tid) + "}";
    os << line;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace dpmerge::obs
