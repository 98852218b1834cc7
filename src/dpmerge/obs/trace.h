#pragma once

#include <cstdint>

#include "dpmerge/obs/flight_recorder.h"

namespace dpmerge::obs {

/// Whether observability instrumentation was compiled in. The CMake option
/// `DPMERGE_OBS=OFF` defines DPMERGE_OBS_DISABLED globally, turning spans,
/// stat hooks and flight-recorder events into no-ops (the export machinery
/// stays so `--trace`/`--stats-json` still emit valid, empty-ish artifacts).
constexpr bool compiled_in() {
#ifdef DPMERGE_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

/// Monotonic microsecond timestamp — the single time source every
/// observability consumer (spans, FlowReport stage times, the timing
/// optimizer's runtime accounting, bench harnesses) shares.
std::int64_t now_us();

#ifndef DPMERGE_OBS_DISABLED

/// RAII scoped timer: records span begin/end events into the flight
/// recorder (and so into its capture when an artifact flag asked for one).
/// With the recorder disabled the constructor is one relaxed atomic load and
/// no clock is read; live (the steady state) it is one clock read plus a
/// lock-free ring write.
class Span {
 public:
  explicit Span(const char* name) {
    FlightRecorder& fr = FlightRecorder::instance();
    if (fr.enabled()) {
      name_ = name;
      t0_ = now_us();
      fr.record(FrKind::SpanBegin, name, t0_);
      fr.push_span(name);
    }
  }
  ~Span() {
    if (name_) {
      const std::int64_t t1 = now_us();
      FlightRecorder& fr = FlightRecorder::instance();
      fr.record(FrKind::SpanEnd, name_, t1, t1 - t0_);
      fr.pop_span();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t t0_ = 0;
};

#else  // DPMERGE_OBS_DISABLED

class Span {
 public:
  explicit Span(const char*) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // DPMERGE_OBS_DISABLED

}  // namespace dpmerge::obs
