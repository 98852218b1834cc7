// Flight recorder (obs/flight_recorder.h): the always-on per-thread event
// rings — record/drain ordering, interning, capacity eviction, the
// unbounded capture, span-stack crash state, and the thread-pool telemetry
// hooks feeding it.

#include "dpmerge/obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dpmerge/obs/json.h"
#include "dpmerge/obs/trace.h"
#include "dpmerge/support/thread_pool.h"

namespace obs = dpmerge::obs;
namespace support = dpmerge::support;

namespace {

std::vector<obs::FrEvent> drained_named(const char* name) {
  std::vector<obs::FrEvent> out;
  for (const obs::FrEvent& e : obs::FlightRecorder::instance().drain()) {
    if (e.name != nullptr && std::string_view(e.name) == name) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(FlightRecorderTest, RecordsAndDrainsInTimeOrder) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  const std::int64_t t0 = obs::now_us();
  fr.record(obs::FrKind::SpanBegin, "fr.test.span", t0);
  fr.record(obs::FrKind::SpanEnd, "fr.test.span", t0 + 10, 10);
  fr.record(obs::FrKind::Mark, "fr.test.mark", t0 + 20, 7);

  const auto events = fr.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const obs::FrEvent& a, const obs::FrEvent& b) {
        return a.ts_us < b.ts_us;
      }));
  EXPECT_EQ(events[0].kind, obs::FrKind::SpanBegin);
  EXPECT_EQ(events[1].kind, obs::FrKind::SpanEnd);
  EXPECT_EQ(events[1].value, 10);
  EXPECT_EQ(events[2].kind, obs::FrKind::Mark);
  EXPECT_EQ(events[2].value, 7);
  EXPECT_NE(events[0].tid, 0);  // registered threads get nonzero ids
  // drain() copies; the ring still holds the events until clear().
  EXPECT_EQ(fr.drain().size(), 3u);
  fr.clear();
  EXPECT_TRUE(fr.drain().empty());
}

TEST(FlightRecorderTest, WrapperHelpersRecord) {
  obs::FlightRecorder::instance().clear();
  obs::fr_mark("fr.test.wrap_mark", 3);
  obs::FlightRecorder::instance().record(
      obs::FrKind::Counter, "fr.test.wrap_counter", obs::now_us(), -42);

  const auto marks = drained_named("fr.test.wrap_mark");
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0].kind, obs::FrKind::Mark);
  EXPECT_EQ(marks[0].value, 3);
  const auto counters = drained_named("fr.test.wrap_counter");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].kind, obs::FrKind::Counter);
  EXPECT_EQ(counters[0].value, -42);
  obs::FlightRecorder::instance().clear();
}

TEST(FlightRecorderTest, InternReturnsStablePointers) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  const char* a = fr.intern("fr.test.interned.name");
  const char* b = fr.intern(std::string("fr.test.interned.") + "name");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "fr.test.interned.name");
  EXPECT_NE(a, fr.intern("fr.test.other"));
}

TEST(FlightRecorderTest, CapacityBoundsRingAndKeepsMostRecent) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  constexpr std::int64_t kCap = obs::FlightRecorder::kDefaultCapacity;
  constexpr std::int64_t kTotal = kCap + 1000;

  std::uint16_t tid = 0;
  std::thread t([&fr, &tid] {
    for (std::int64_t i = 0; i < kTotal; ++i) {
      fr.record(obs::FrKind::Mark, "fr.test.flood", obs::now_us(), i);
    }
    tid = fr.local_tid();
  });
  t.join();

  ASSERT_NE(tid, 0);
  std::vector<std::int64_t> values;
  for (const obs::FrEvent& e : fr.drain()) {
    if (e.tid == tid) values.push_back(e.value);
  }
  // The fixed ring keeps the newest kDefaultCapacity events: 1000..kTotal-1.
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kCap));
  EXPECT_EQ(*std::min_element(values.begin(), values.end()), kTotal - kCap);
  EXPECT_EQ(*std::max_element(values.begin(), values.end()), kTotal - 1);
  fr.clear();
}

TEST(FlightRecorderTest, CaptureKeepsEveryEventPastTheRing) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  constexpr std::int64_t kTotal = obs::FlightRecorder::kDefaultCapacity + 1000;
  fr.record(obs::FrKind::Mark, "fr.test.before_capture", obs::now_us());
  fr.set_capture(true);
  EXPECT_TRUE(fr.capturing());
  for (std::int64_t i = 0; i < kTotal; ++i) {
    fr.record(obs::FrKind::Mark, "fr.test.captured", obs::now_us(), i);
  }
  fr.set_capture(false);
  fr.record(obs::FrKind::Mark, "fr.test.after_capture", obs::now_us());

  const auto captured = fr.drain_capture();
  ASSERT_EQ(captured.size(), static_cast<std::size_t>(kTotal));
  for (std::int64_t i = 0; i < kTotal; ++i) {
    EXPECT_STREQ(captured[static_cast<std::size_t>(i)].name,
                 "fr.test.captured");
    EXPECT_EQ(captured[static_cast<std::size_t>(i)].value, i);
  }
  // The ring still holds only its fixed capacity, newest last.
  const auto ring = fr.drain();
  EXPECT_EQ(ring.size(), obs::FlightRecorder::kDefaultCapacity);
  EXPECT_STREQ(ring.back().name, "fr.test.after_capture");
  fr.clear();
  EXPECT_TRUE(fr.drain_capture().empty());
}

TEST(FlightRecorderTest, SpanStackAndContextShowInThreadStates) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  obs::fr_set_thread_context("sweep:D4/new-merge");
  const std::uint16_t my_tid = fr.local_tid();
  {
    obs::Span outer("fr.test.outer");
    obs::Span inner("fr.test.inner");
    bool found = false;
    for (const obs::FrThreadState& st : fr.thread_states()) {
      if (st.tid != my_tid) continue;
      found = true;
      EXPECT_EQ(st.context, "sweep:D4/new-merge");
      ASSERT_EQ(st.span_stack.size(), 2u);
      EXPECT_EQ(st.span_stack[0], "fr.test.outer");
      EXPECT_EQ(st.span_stack[1], "fr.test.inner");
    }
    EXPECT_TRUE(found);
  }
  // Spans closed: the stack is empty again and four events were recorded.
  for (const obs::FrThreadState& st : fr.thread_states()) {
    if (st.tid == my_tid) {
      EXPECT_TRUE(st.span_stack.empty());
    }
  }
  EXPECT_EQ(fr.drain().size(), 4u);
  obs::fr_set_thread_context("");
  fr.clear();
}

TEST(FlightRecorderTest, PoolTelemetryFlowsIntoRecorderAndRegistry) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();

  support::ThreadPool pool(3);
  std::vector<int> out(16, 0);
  pool.parallel_for(16, [&](int i) { out[static_cast<std::size_t>(i)] = i; });

  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);

  const auto jobs = drained_named("pool.job");
  ASSERT_EQ(jobs.size(), 1u);
  const auto tasks = drained_named("pool.task");
  std::vector<std::uint32_t> positions;
  for (const obs::FrEvent& e : tasks) {
    if (e.kind == obs::FrKind::TaskEnd) positions.push_back(e.aux);
    if (e.kind == obs::FrKind::TaskBegin) {
      // Begins carry the job id and are stamped when the task starts, no
      // earlier than the job's mark on the submitting thread.
      EXPECT_EQ(e.value, jobs[0].value);
      EXPECT_GE(e.ts_us, jobs[0].ts_us);
    }
  }
  std::sort(positions.begin(), positions.end());
  ASSERT_EQ(positions.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) EXPECT_EQ(positions[i], i);
  fr.clear();
}

TEST(FlightRecorderTest, EventsJsonlIsValidJsonPerLine) {
  obs::FlightRecorder& fr = obs::FlightRecorder::instance();
  fr.clear();
  obs::fr_mark("fr.test.jsonl \"quoted\"", 1);
  fr.record(obs::FrKind::Counter, "fr.test.jsonl2", obs::now_us(), 2);
  std::ostringstream os;
  obs::write_events_jsonl(os, fr.drain());
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    std::string err;
    EXPECT_TRUE(obs::json_valid(line, &err)) << line << ": " << err;
  }
  EXPECT_EQ(lines, 2);
  fr.clear();
}

}  // namespace
