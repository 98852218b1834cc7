#pragma once

#include <cstdint>

#include "dpmerge/obs/flight_recorder.h"

namespace dpmerge::obs {

/// Monotonic microsecond timestamp — the single time source every
/// observability consumer (spans, FlowReport stage times, the timing
/// optimizer's runtime accounting, bench harnesses) shares.
std::int64_t now_us();

/// RAII scoped timer: records span begin/end events into the flight
/// recorder (and so into its capture when an artifact flag asked for one).
/// Begin and end are each one clock read plus a lock-free ring write.
class Span {
 public:
  explicit Span(const char* name) : name_(name), t0_(now_us()) {
    FlightRecorder& fr = FlightRecorder::instance();
    fr.record(FrKind::SpanBegin, name, t0_);
    fr.push_span(name);
  }
  ~Span() {
    const std::int64_t t1 = now_us();
    FlightRecorder& fr = FlightRecorder::instance();
    fr.record(FrKind::SpanEnd, name_, t1, t1 - t0_);
    fr.pop_span();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::int64_t t0_;
};

}  // namespace dpmerge::obs
