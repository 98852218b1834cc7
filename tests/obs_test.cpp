// Tests for dpmerge::obs: JSON validation, the flight-recorder capture and
// its Chrome trace_event and profile renderings, stat sinks/scopes,
// FlowReport contents for a real flow, and the
// determinism contract of the --stats-json artifacts (same workload =>
// byte-identical JSON, regardless of thread schedule, when wall-clock fields
// are zeroed).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "dpmerge/designs/testcases.h"
#include "dpmerge/obs/obs.h"
#include "dpmerge/synth/flow.h"

namespace dpmerge {
namespace {

// Every test that touches the (process-global) recorder capture serialises
// through this fixture: capture off + clear so no events leak between tests.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::FlightRecorder::instance().set_capture(false);
    obs::FlightRecorder::instance().clear();
  }
  /// Stops the capture and drains it, as ArtifactSession does at exit.
  static std::vector<obs::FrEvent> stop_and_drain() {
    obs::FlightRecorder::instance().set_capture(false);
    return obs::FlightRecorder::instance().drain_capture();
  }
  static std::string chrome(const std::vector<obs::FrEvent>& events) {
    std::ostringstream os;
    obs::write_chrome_trace(os, events);
    return os.str();
  }
};

/// Per-name "X" event counts of a Chrome trace document.
std::map<std::string, std::int64_t> complete_counts(const std::string& json) {
  std::map<std::string, std::int64_t> out;
  obs::JsonValue doc;
  if (!obs::json_parse(json, &doc)) return out;
  for (const obs::JsonValue& e : doc.find("traceEvents")->array) {
    if (e.text("ph") == "X") ++out[std::string(e.text("name"))];
  }
  return out;
}

/// Per-name occurrence counts summed over every path of a profile tree.
void profile_counts(const obs::ProfileNode& n,
                    std::map<std::string, std::int64_t>& out) {
  for (const obs::ProfileNode& c : n.children) {
    out[c.name] += c.count;
    profile_counts(c, out);
  }
}

TEST(JsonValidTest, AcceptsWellFormedValues) {
  for (const char* ok :
       {"{}", "[]", "0", "-12.5e3", "true", "false", "null", "\"s\"",
        R"({"a":[1,2,{"b":null}],"c":"é\n"})", "[[[[1]]]]",
        R"({"x":1e-10,"y":[true,false]})"}) {
    std::string err;
    EXPECT_TRUE(obs::json_valid(ok, &err)) << ok << ": " << err;
  }
}

TEST(JsonValidTest, RejectsMalformedValues) {
  for (const char* bad :
       {"", "{", "}", "[1,]", "{\"a\":}", "{a:1}", "01", "+1", "1.",
        "\"unterminated", "tru", "[1] extra", "{\"a\":1,}", "\"bad\\x\"",
        "nan"}) {
    EXPECT_FALSE(obs::json_valid(bad)) << bad;
  }
}

TEST(JsonValidTest, ReportsErrorOffset) {
  std::string err;
  EXPECT_FALSE(obs::json_valid("[1,2,", &err));
  EXPECT_NE(err.find("at byte"), std::string::npos);
}

TEST(JsonNumberTest, NonFiniteBecomesZero) {
  EXPECT_EQ(obs::json_number(0.0 / 0.0), "0");
  EXPECT_EQ(obs::json_number(1.0 / 0.0), "0");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
}

TEST_F(TracerTest, IdleTracerRecordsNothing) {
  {
    obs::Span span("idle.span");
    obs::fr_mark("idle.mark");
  }
  // The span reached the always-on ring, but nothing was captured.
  EXPECT_FALSE(obs::FlightRecorder::instance().capturing());
  EXPECT_TRUE(obs::FlightRecorder::instance().drain_capture().empty());
  std::string err;
  EXPECT_TRUE(obs::json_valid(chrome({}), &err)) << err;
}

TEST_F(TracerTest, ExportIsValidChromeTraceJson) {
  obs::FlightRecorder::instance().set_capture(true);
  {
    obs::Span outer("outer");
    { obs::Span inner("inner \"quoted\"\n"); }
    obs::fr_mark("marker", 7);
    obs::FlightRecorder::instance().record(obs::FrKind::Counter, "counter",
                                           obs::now_us(), -3);
  }
  const auto events = stop_and_drain();
  EXPECT_EQ(events.size(), 6u);  // 2 begins, 2 ends, a mark and a counter

  const std::string json = chrome(events);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, &doc, &err)) << err;
  const obs::JsonValue* trace = doc.find("traceEvents");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->array.size(), 4u);  // begins are implied by their ends
  std::map<std::string, const obs::JsonValue*> by_name;
  for (const obs::JsonValue& e : trace->array) {
    EXPECT_EQ(e.text("cat"), "dpmerge");
    by_name[std::string(e.text("name"))] = &e;
  }
  const obs::JsonValue* outer = by_name["outer"];
  const obs::JsonValue* inner = by_name["inner \"quoted\"\n"];
  ASSERT_TRUE(outer && inner && by_name["marker"] && by_name["counter"]);
  EXPECT_EQ(outer->text("ph"), "X");
  EXPECT_EQ(inner->text("ph"), "X");
  // "X" starts at end - dur, so the inner span lies inside the outer one.
  EXPECT_LE(outer->num("ts"), inner->num("ts"));
  EXPECT_LE(inner->num("ts") + inner->num("dur"),
            outer->num("ts") + outer->num("dur"));
  EXPECT_EQ(by_name["marker"]->text("ph"), "i");
  EXPECT_EQ(by_name["marker"]->find("args")->num("value"), 7);
  EXPECT_EQ(by_name["counter"]->text("ph"), "C");
  EXPECT_EQ(by_name["counter"]->find("args")->num("value"), -3);
}

TEST_F(TracerTest, PerThreadBuffersMergeAtExport) {
  obs::FlightRecorder::instance().set_capture(true);
  constexpr int kThreads = 4, kEach = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kEach; ++i) obs::fr_mark("thread.event", i);
    });
  }
  for (auto& th : pool) th.join();
  const auto events = stop_and_drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kEach));
  std::set<std::uint16_t> tids;
  for (const obs::FrEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const obs::FrEvent& a, const obs::FrEvent& b) {
                               return a.ts_us < b.ts_us;
                             }));
  std::string err;
  EXPECT_TRUE(obs::json_valid(chrome(events), &err)) << err;
}

TEST_F(TracerTest, CaptureLongerThanRingBuildsCompleteProfile) {
  constexpr std::int64_t kRounds = obs::FlightRecorder::kDefaultCapacity;
  obs::FlightRecorder::instance().set_capture(true);
  for (std::int64_t i = 0; i < kRounds; ++i) {
    obs::Span outer("capture.outer");
    obs::Span inner("capture.inner");
  }
  const auto events = stop_and_drain();
  // Four events a round: four times what the ring holds.
  ASSERT_EQ(events.size(), static_cast<std::size_t>(4 * kRounds));

  const obs::Profile p = obs::build_profile(events);
  EXPECT_EQ(p.events, 4 * kRounds);
  EXPECT_EQ(p.dropped, 0);
  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& outer = p.root.children[0];
  EXPECT_EQ(outer.name, "capture.outer");
  EXPECT_EQ(outer.count, kRounds);
  const obs::ProfileNode* inner = outer.child("capture.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, kRounds);
}

TEST_F(TracerTest, FlowProfileAndChromeTraceCountTheSameSpans) {
  const auto cases = designs::all_testcases();
  obs::FlightRecorder::instance().set_capture(true);
  synth::run_flow(cases.at(3).graph, synth::Flow::NewMerge);
  const auto events = stop_and_drain();

  const auto trace = complete_counts(chrome(events));
  std::map<std::string, std::int64_t> profile;
  profile_counts(obs::build_profile(events).root, profile);
  EXPECT_EQ(trace, profile);
  EXPECT_EQ(trace.count("flow.new-merge"), 1u);
  EXPECT_GT(trace.count("transform.prune_ic"), 0u);
  EXPECT_EQ(trace.count("cluster.decision"), 0u);
}

TEST(StatSinkTest, AddGetAndMax) {
  obs::StatSink sink;
  sink.add("a");
  sink.add("a", 4);
  sink.set_max("m", 3);
  sink.set_max("m", 1);
  EXPECT_EQ(sink.get("a"), 5);
  EXPECT_EQ(sink.get("m"), 3);
  EXPECT_EQ(sink.get("absent"), 0);
}

TEST(StatScopeTest, InstallsAndRestoresNested) {
  EXPECT_EQ(obs::current_sink(), nullptr);
  obs::StatSink outer, inner;
  {
    obs::StatScope s1(&outer);
    obs::stat_add("hits");
    {
      obs::StatScope s2(&inner);
      obs::stat_add("hits", 2);
      EXPECT_EQ(obs::current_sink(), &inner);
    }
    obs::stat_add("hits");
    EXPECT_EQ(obs::current_sink(), &outer);
  }
  EXPECT_EQ(obs::current_sink(), nullptr);
  EXPECT_EQ(outer.get("hits"), 2);
  EXPECT_EQ(inner.get("hits"), 2);
}

TEST(FlowReportTest, NewMergeFlowPopulatesReport) {
  const auto cases = designs::all_testcases();
  const auto& d4 = cases.at(3);
  ASSERT_EQ(d4.name, "D4");
  const auto res = synth::run_flow(d4.graph, synth::Flow::NewMerge);
  const obs::FlowReport& rep = res.report;

  EXPECT_EQ(rep.flow, "new-merge");
  EXPECT_EQ(rep.cluster_iterations, res.cluster_iterations);
  EXPECT_GE(rep.cluster_iterations, 1);
  EXPECT_GT(rep.merge_decisions, 0);
  EXPECT_GT(rep.csa_rows, 0);
  EXPECT_GE(rep.cpa_count, 1);
  EXPECT_FALSE(rep.cells_by_type.empty());
  // Cell histogram covers the whole netlist.
  std::int64_t cells = 0;
  for (const auto& [type, n] : rep.cells_by_type) cells += n;
  EXPECT_EQ(cells, res.net.gate_count());
  // Stages in pipeline order, each name exactly once.
  ASSERT_EQ(rep.stages.size(), 3u);
  EXPECT_EQ(rep.stages[0].name, "normalize");
  EXPECT_EQ(rep.stages[1].name, "cluster");
  EXPECT_EQ(rep.stages[2].name, "synth");
  EXPECT_EQ(rep.stages[2].out_nodes, res.net.gate_count());
  // One iteration entry per clusterer iteration across all feedback rounds.
  EXPECT_EQ(static_cast<std::int64_t>(rep.iterations.size()),
            rep.cluster_iterations);

  std::string json;
  rep.to_json(json);
  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_FALSE(rep.to_text().empty());
}

TEST(FlowReportTest, BaselineFlowsReportMergeDecisions) {
  const auto cases = designs::all_testcases();
  const auto& d1 = cases.at(0);
  const auto none = synth::run_flow(d1.graph, synth::Flow::NoMerge);
  EXPECT_EQ(none.report.merge_decisions, 0);  // every operator standalone
  const auto old = synth::run_flow(d1.graph, synth::Flow::OldMerge);
  EXPECT_GT(old.report.merge_decisions, 0);
  EXPECT_GE(none.report.merge_decisions + none.partition.num_clusters(),
            old.report.merge_decisions + old.partition.num_clusters());
}

/// The determinism contract behind `--stats-json ... --stats-deterministic`:
/// identical workloads must serialise byte-identically with zero_times set,
/// whatever the thread schedule.
TEST(StatsDeterminismTest, ZeroedTimesAreByteIdenticalAcrossRuns) {
  const auto cases = designs::all_testcases();
  const synth::Flow flows[] = {synth::Flow::NoMerge, synth::Flow::OldMerge,
                               synth::Flow::NewMerge};

  auto run_all = [&](int threads) {
    std::vector<obs::FlowReport> reports(cases.size() * 3);
    std::vector<std::thread> pool;
    const int n = static_cast<int>(reports.size());
    std::atomic<int> next{0};
    auto work = [&] {
      for (int cell = next.fetch_add(1); cell < n;
           cell = next.fetch_add(1)) {
        const auto& tc = cases[static_cast<std::size_t>(cell / 3)];
        auto res = synth::run_flow(tc.graph, flows[cell % 3]);
        res.report.design = tc.name;
        reports[static_cast<std::size_t>(cell)] = std::move(res.report);
      }
    };
    for (int t = 0; t < threads; ++t) pool.emplace_back(work);
    for (auto& th : pool) th.join();
    std::ostringstream os;
    obs::StatsJsonOptions opt;
    opt.zero_times = true;
    obs::write_stats_json(os, "obs_test", 1, reports, opt);
    return os.str();
  };

  const std::string one = run_all(1);
  const std::string four = run_all(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  std::string err;
  EXPECT_TRUE(obs::json_valid(one, &err)) << err;
}

}  // namespace
}  // namespace dpmerge
