// Crash diagnostics (obs/crash.h): fault-injection tests that fork a child,
// kill it mid-sweep (SIGSEGV in a pool task, a stack overflow, an uncaught
// exception reaching std::terminate, a CheckPolicy fatal path), and assert
// the child's dpmerge-crash-<pid>.json names the active stage and sweep.

#include "dpmerge/obs/crash.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dpmerge/obs/flight_recorder.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/trace.h"
#include "dpmerge/support/thread_pool.h"

namespace obs = dpmerge::obs;
namespace support = dpmerge::support;

namespace {

/// Forks, runs `child` (which must die or _exit on its own), and parses the
/// child's dpmerge-crash-<pid>.json from a fresh temp dir into `doc`.
/// `status` gets the raw waitpid status. Void so ASSERT_* can bail.
template <typename Fn>
void run_crashing_child(Fn child, int* status, obs::JsonValue* doc) {
  char tmpl[] = "/tmp/dpmerge-crash-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    child(std::string(dir));
    ::_exit(0);
  }
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::waitpid(pid, status, 0), pid) << "waitpid failed";

  const std::string path =
      std::string(dir) + "/dpmerge-crash-" + std::to_string(pid) + ".json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no crash dump at " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  ASSERT_TRUE(obs::json_parse(ss.str(), doc, &err)) << err;
  std::remove(path.c_str());
  ::rmdir(dir);
}

TEST(CrashDumpTest, SegvInPoolTaskDumpNamesStageAndSweep) {
  int status = 0;
  obs::JsonValue doc;
  run_crashing_child(
      [](const std::string& dir) {
        obs::CrashOptions o;
        o.dir = dir;
        obs::install_crash_handlers(o);
        obs::set_run_context("crash-test", 42);
        obs::set_current_stage("synth");
        obs::fr_mark("sweep.begin", 1);
        support::ThreadPool pool(3);
        pool.parallel_for(4, [](int i) {
          if (i == 2) {
            obs::fr_set_thread_context("sweep:D4/new-merge");
            obs::Span s("synth.csa.reduce");
            std::raise(SIGSEGV);
          }
        });
      },
      &status, &doc);
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  EXPECT_EQ(doc.text("schema"), "dpmerge-crash-v1");
  EXPECT_EQ(doc.text("reason"), "signal");
  EXPECT_EQ(doc.text("detail"), "SIGSEGV");
  EXPECT_EQ(doc.text("stage"), "synth");
  const obs::JsonValue* run = doc.find("run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->text("tool"), "crash-test");
  EXPECT_EQ(run->num("seed"), 42.0);
  const obs::JsonValue* build = doc.find("build");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(build->find("compiler"), nullptr);

  // The crashing thread's state must name the sweep and its open span.
  const obs::JsonValue* threads = doc.find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_TRUE(threads->is_array());
  const obs::JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);

  bool found_sweep = false;
  for (const obs::JsonValue& t : threads->array) {
    if (t.text("context") != "sweep:D4/new-merge") continue;
    found_sweep = true;
    const obs::JsonValue* stack = t.find("span_stack");
    ASSERT_NE(stack, nullptr);
    ASSERT_FALSE(stack->array.empty());
    EXPECT_EQ(stack->array.back().str, "synth.csa.reduce");
  }
  EXPECT_TRUE(found_sweep) << "no thread state names the sweep";

  // The drained flight recorder rode along.
  bool found_mark = false;
  for (const obs::JsonValue& e : events->array) {
    if (e.text("name") == "sweep.begin") found_mark = true;
  }
  EXPECT_TRUE(found_mark);
}

/// Never reached in practice; volatile so the compiler cannot prove
/// overflow_stack endless.
volatile int g_depth_limit = std::numeric_limits<int>::max();

/// Recurses until the stack runs out; the volatile frame keeps every level
/// on the stack.
int overflow_stack(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth >= g_depth_limit) return frame[0];
  return overflow_stack(depth + 1) + frame[0];
}

TEST(CrashDumpTest, StackOverflowDumpsFromTheAltStack) {
  int status = 0;
  obs::JsonValue doc;
  run_crashing_child(
      [](const std::string& dir) {
        obs::CrashOptions o;
        o.dir = dir;
        obs::install_crash_handlers(o);
        obs::set_run_context("crash-test", 3);
        obs::set_current_stage("parse");
        overflow_stack(0);
      },
      &status, &doc);
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  EXPECT_EQ(doc.text("reason"), "signal");
  EXPECT_EQ(doc.text("detail"), "SIGSEGV");
  EXPECT_EQ(doc.text("stage"), "parse");
}

TEST(CrashDumpTest, UncaughtExceptionDumpCarriesWhat) {
  int status = 0;
  obs::JsonValue doc;
  run_crashing_child(
      [](const std::string& dir) {
        obs::CrashOptions o;
        o.dir = dir;
        obs::install_crash_handlers(o);
        obs::set_run_context("crash-test", 7);
        // Throw across a noexcept boundary so the exception reaches
        // std::terminate even under gtest's own exception guard; the
        // compiler's warning that it will is the point of the test.
#pragma GCC diagnostic push
#if defined(__clang__)
#pragma GCC diagnostic ignored "-Wexceptions"
#else
#pragma GCC diagnostic ignored "-Wterminate"
#endif
        const auto boom = []() noexcept {
          throw std::runtime_error("boom: width mismatch in cluster 3");
        };
#pragma GCC diagnostic pop
        boom();
      },
      &status, &doc);
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  EXPECT_EQ(doc.text("reason"), "terminate");
  EXPECT_EQ(doc.text("detail"), "boom: width mismatch in cluster 3");
}

TEST(CrashDumpTest, CheckFailureDumpIsOptInAndOncePerProcess) {
  int status = 0;
  obs::JsonValue doc;
  run_crashing_child(
      [](const std::string& dir) {
        obs::CrashOptions o;
        o.dir = dir;  // dump_on_check_failure defaults to true
        obs::install_crash_handlers(o);
        obs::note_check_failure("net.verify", "gate count mismatch");
        // The process survives a check failure; the latch makes the second
        // note a no-op instead of overwriting the first dump.
        obs::note_check_failure("net.verify.second", "ignored");
      },
      &status, &doc);
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(doc.text("reason"), "check-failure");
  EXPECT_EQ(doc.text("detail"), "net.verify: gate count mismatch");
}

TEST(CrashDumpTest, NoDumpWhenCheckFailureDumpsDisabled) {
  char tmpl[] = "/tmp/dpmerge-crash-test-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    obs::CrashOptions o;
    o.dir = dir;
    o.dump_on_check_failure = false;
    obs::install_crash_handlers(o);
    obs::note_check_failure("net.verify", "handled finding");
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::string path =
      std::string(dir) + "/dpmerge-crash-" + std::to_string(pid) + ".json";
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "unexpected dump at " << path;
  ::rmdir(dir);
}

TEST(CrashDumpTest, BuildCrashJsonIsValidWithoutCrashing) {
  obs::set_run_context("crash-test", 9);
  const std::string body = obs::build_crash_json("unit-test", "no crash");
  std::string err;
  ASSERT_TRUE(obs::json_valid(body, &err)) << err;
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(body, &doc, &err)) << err;
  EXPECT_EQ(doc.text("schema"), "dpmerge-crash-v1");
  EXPECT_EQ(doc.text("reason"), "unit-test");
  EXPECT_GT(doc.num("pid"), 0.0);
  EXPECT_GE(doc.num("peak_rss_mb"), 0.0);
  ASSERT_NE(doc.find("threads"), nullptr);
  ASSERT_NE(doc.find("events"), nullptr);
}

}  // namespace
