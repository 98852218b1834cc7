// Hierarchical profiler (obs/profiler.h): call-tree aggregation from
// synthetic flight-recorder event streams, JSON round-trip, folded stacks,
// and the diff renderer.

#include "dpmerge/obs/profiler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dpmerge/obs/json.h"

namespace obs = dpmerge::obs;

namespace {

obs::FrEvent ev(std::int64_t ts, obs::FrKind kind, const char* name,
                std::int64_t value = 0, std::uint16_t tid = 1) {
  obs::FrEvent e;
  e.ts_us = ts;
  e.kind = kind;
  e.name = name;
  e.value = value;
  e.tid = tid;
  return e;
}

TEST(ProfilerTest, NestedSpansProduceSelfAndTotal) {
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "a"),
      ev(10, obs::FrKind::SpanBegin, "b"),
      ev(40, obs::FrKind::SpanEnd, "b", 30),
      ev(100, obs::FrKind::SpanEnd, "a", 100),
  };
  const obs::Profile p = obs::build_profile(events);
  EXPECT_EQ(p.events, 4);
  EXPECT_EQ(p.dropped, 0);

  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& a = p.root.children[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(a.total_us, 100);
  EXPECT_EQ(a.self_us, 70);
  EXPECT_EQ(a.p50_us, 100);
  EXPECT_EQ(a.p99_us, 100);
  const obs::ProfileNode* b = a.child("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->total_us, 30);
  EXPECT_EQ(b->self_us, 30);
  // Root aggregates the top level.
  EXPECT_EQ(p.root.total_us, 100);
}

TEST(ProfilerTest, IdenticalPathsMergeAcrossThreads) {
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "a", 0, 1),
      ev(1, obs::FrKind::SpanBegin, "a", 0, 2),
      ev(5, obs::FrKind::SpanBegin, "b", 0, 1),
      ev(6, obs::FrKind::SpanBegin, "b", 0, 2),
      ev(15, obs::FrKind::SpanEnd, "b", 10, 1),
      ev(26, obs::FrKind::SpanEnd, "b", 20, 2),
      ev(40, obs::FrKind::SpanEnd, "a", 40, 1),
      ev(61, obs::FrKind::SpanEnd, "a", 60, 2),
  };
  const obs::Profile p = obs::build_profile(events);
  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& a = p.root.children[0];
  EXPECT_EQ(a.count, 2);
  EXPECT_EQ(a.total_us, 100);
  const obs::ProfileNode* b = a.child("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 2);
  EXPECT_EQ(b->total_us, 30);
  EXPECT_EQ(b->p50_us, 10);
  EXPECT_EQ(b->p99_us, 20);
}

TEST(ProfilerTest, CountersAndMarksAttachToOpenNode) {
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "stage"),
      ev(1, obs::FrKind::Counter, "stage.rss_delta_kb", 512),
      ev(2, obs::FrKind::Counter, "cells.emitted", 37),
      ev(3, obs::FrKind::Mark, "check.failure:net.verify"),
      ev(9, obs::FrKind::TaskEnd, "pool.task", 7),
      ev(10, obs::FrKind::SpanEnd, "stage", 10),
  };
  const obs::Profile p = obs::build_profile(events);
  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& stage = p.root.children[0];
  EXPECT_EQ(stage.rss_delta_kb, 512);
  ASSERT_TRUE(stage.counters.count("cells.emitted"));
  EXPECT_EQ(stage.counters.at("cells.emitted"), 37);
  ASSERT_TRUE(stage.counters.count("check.failure:net.verify"));
  EXPECT_EQ(stage.counters.at("check.failure:net.verify"), 1);
  // A task end without its begin is an occurrence under the open span.
  const obs::ProfileNode* task = stage.child("pool.task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 1);
  EXPECT_EQ(task->total_us, 7);
  EXPECT_EQ(p.dropped, 1);
}

TEST(ProfilerTest, PoolTasksNestUnderTheSubmittingPath) {
  obs::FrEvent job = ev(10, obs::FrKind::Mark, "pool.job", 9, 1);
  job.aux = 2;  // tasks
  obs::FrEvent t0 = ev(10, obs::FrKind::TaskBegin, "pool.task", 9, 0);
  obs::FrEvent t1 = ev(11, obs::FrKind::TaskBegin, "pool.task", 9, 1);
  t1.aux = 1;
  // Worker tid 0 sorts before the submitter at the job's timestamp: the
  // link is the job id, not the drain order.
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "bench.cells", 0, 1),
      t0,
      job,
      t1,
      ev(12, obs::FrKind::SpanBegin, "flow.synth", 0, 0),
      ev(13, obs::FrKind::SpanBegin, "flow.synth", 0, 1),
      ev(20, obs::FrKind::SpanEnd, "flow.synth", 8, 0),
      ev(21, obs::FrKind::TaskEnd, "pool.task", 11, 0),
      ev(30, obs::FrKind::SpanEnd, "flow.synth", 17, 1),
      ev(31, obs::FrKind::TaskEnd, "pool.task", 20, 1),
      ev(40, obs::FrKind::SpanEnd, "bench.cells", 40, 1),
  };
  const obs::Profile p = obs::build_profile(events);
  EXPECT_EQ(p.dropped, 0);
  ASSERT_EQ(p.root.children.size(), 1u);
  const obs::ProfileNode& cells = p.root.children[0];
  EXPECT_EQ(cells.name, "bench.cells");
  EXPECT_EQ(cells.counters.at("pool.job"), 1);
  const obs::ProfileNode* task = cells.child("pool.task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->count, 2);
  EXPECT_EQ(task->total_us, 31);
  const obs::ProfileNode* synth = task->child("flow.synth");
  ASSERT_NE(synth, nullptr);
  EXPECT_EQ(synth->count, 2);
  EXPECT_EQ(synth->total_us, 25);
  EXPECT_EQ(task->self_us, 6);
}

TEST(ProfilerTest, UnmatchedSpanEndIsAttributedAndCountedDropped) {
  const std::vector<obs::FrEvent> events = {
      ev(5, obs::FrKind::SpanEnd, "evicted", 5),
  };
  const obs::Profile p = obs::build_profile(events);
  EXPECT_EQ(p.dropped, 1);
  ASSERT_EQ(p.root.children.size(), 1u);
  EXPECT_EQ(p.root.children[0].name, "evicted");
  EXPECT_EQ(p.root.children[0].total_us, 5);
}

TEST(ProfilerTest, JsonRoundTripPreservesTree) {
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "a"),
      ev(10, obs::FrKind::SpanBegin, "b"),
      ev(40, obs::FrKind::SpanEnd, "b", 30),
      ev(100, obs::FrKind::SpanEnd, "a", 100),
      ev(101, obs::FrKind::SpanEnd, "stray", 1),
  };
  const obs::Profile p = obs::build_profile(events);
  std::ostringstream os;
  obs::write_profile_json(os, p);
  std::string err;
  ASSERT_TRUE(obs::json_valid(os.str(), &err)) << err;

  obs::Profile q;
  ASSERT_TRUE(obs::read_profile_json(os.str(), &q, &err)) << err;
  EXPECT_EQ(q.events, p.events);
  EXPECT_EQ(q.dropped, p.dropped);
  ASSERT_EQ(q.root.children.size(), p.root.children.size());
  const obs::ProfileNode* a = q.root.child("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->total_us, 100);
  EXPECT_EQ(a->self_us, 70);
  EXPECT_EQ(a->p99_us, 100);
  const obs::ProfileNode* b = a->child("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->total_us, 30);
}

TEST(ProfilerTest, ZeroTimesOptionZeroesDurationsAndOmitsRegistry) {
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "a"),
      ev(100, obs::FrKind::SpanEnd, "a", 100),
  };
  std::ostringstream os;
  obs::ProfileJsonOptions opt;
  opt.zero_times = true;
  obs::write_profile_json(os, obs::build_profile(events), opt);
  std::string err;
  obs::Profile q;
  ASSERT_TRUE(obs::read_profile_json(os.str(), &q, &err)) << err;
  const obs::ProfileNode* a = q.root.child("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->total_us, 0);
  EXPECT_EQ(a->p99_us, 0);
  EXPECT_EQ(q.peak_rss_mb, 0.0);
}

TEST(ProfilerTest, ZeroTimesOrdersChildrenByName) {
  // Child times run against name order: time order is z, m, a. With the
  // times zeroed the children come out by name, so two runs whose times
  // differ write the same bytes.
  const auto json = [](std::int64_t scale, bool zero) {
    const std::vector<obs::FrEvent> events = {
        ev(0, obs::FrKind::SpanBegin, "z"),
        ev(300 * scale, obs::FrKind::SpanEnd, "z", 300 * scale),
        ev(400, obs::FrKind::SpanBegin, "a"),
        ev(500, obs::FrKind::SpanEnd, "a", 100),
        ev(600, obs::FrKind::SpanBegin, "m"),
        ev(800, obs::FrKind::SpanEnd, "m", 200),
    };
    std::ostringstream os;
    obs::ProfileJsonOptions opt;
    opt.zero_times = zero;
    obs::write_profile_json(os, obs::build_profile(events), opt);
    return os.str();
  };
  const std::string timed = json(1, false);
  EXPECT_LT(timed.find("\"z\""), timed.find("\"m\""));
  EXPECT_LT(timed.find("\"m\""), timed.find("\"a\""));

  const std::string zeroed = json(1, true);
  EXPECT_LT(zeroed.find("\"a\""), zeroed.find("\"m\""));
  EXPECT_LT(zeroed.find("\"m\""), zeroed.find("\"z\""));
  // z drops from first to last by time; the zeroed bytes stay put.
  EXPECT_EQ(json(0, true), zeroed);
}

TEST(ProfilerTest, TextAndFoldedRenderings) {
  const std::vector<obs::FrEvent> events = {
      ev(0, obs::FrKind::SpanBegin, "a"),
      ev(10, obs::FrKind::SpanBegin, "b"),
      ev(40, obs::FrKind::SpanEnd, "b", 30),
      ev(100, obs::FrKind::SpanEnd, "a", 100),
  };
  const obs::Profile p = obs::build_profile(events);

  std::ostringstream text;
  obs::write_profile_text(text, p);
  EXPECT_NE(text.str().find("a"), std::string::npos);
  EXPECT_NE(text.str().find("total"), std::string::npos);

  std::ostringstream folded;
  obs::write_profile_folded(folded, p);
  EXPECT_NE(folded.str().find("a 70\n"), std::string::npos);
  EXPECT_NE(folded.str().find("a;b 30\n"), std::string::npos);
}

TEST(ProfilerTest, DiffRendersPathDeltas) {
  const std::vector<obs::FrEvent> before_ev = {
      ev(0, obs::FrKind::SpanBegin, "a"),
      ev(100, obs::FrKind::SpanEnd, "a", 100),
  };
  const std::vector<obs::FrEvent> after_ev = {
      ev(0, obs::FrKind::SpanBegin, "a"),
      ev(250, obs::FrKind::SpanEnd, "a", 250),
      ev(260, obs::FrKind::SpanBegin, "new_stage"),
      ev(270, obs::FrKind::SpanEnd, "new_stage", 10),
  };
  const std::string diff = obs::profile_diff_text(
      obs::build_profile(before_ev), obs::build_profile(after_ev));
  EXPECT_NE(diff.find("a"), std::string::npos);
  EXPECT_NE(diff.find("+150"), std::string::npos);
  EXPECT_NE(diff.find("new_stage"), std::string::npos);
}

}  // namespace
