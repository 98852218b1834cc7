#include "dpmerge/obs/crash.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>

#include "dpmerge/obs/flight_recorder.h"
#include "dpmerge/obs/json.h"
#include "dpmerge/obs/memory.h"
#include "dpmerge/obs/trace.h"

namespace dpmerge::obs {

namespace {

// All crash state is lock-free on purpose: the handlers may fire on any
// thread at any instant, including while another thread holds an obs or
// pool mutex. Torn reads of the run-context strings yield at worst a
// garbled label in the dump.
std::atomic<bool> g_installed{false};
std::atomic<bool> g_dump_on_check_failure{true};
std::atomic<bool> g_fatal_dumped{false};  // one fatal dump per process
std::atomic<bool> g_check_dumped{false};  // one check-failure dump per process
std::atomic<const char*> g_stage{nullptr};

char g_dir[512] = {'.', '\0'};
char g_tool[64] = {};
std::atomic<std::uint64_t> g_seed{0};

std::terminate_handler g_prev_terminate = nullptr;

constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
  }
  return "signal";
}

std::string dump_path() {
  std::string path(g_dir);
  if (!path.empty() && path.back() != '/') path += '/';
  path += "dpmerge-crash-" + std::to_string(::getpid()) + ".json";
  return path;
}

/// POSIX write of the whole document — no stdio buffering between us and
/// the dying process.
bool write_file_raw(const std::string& path, std::string_view body) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < body.size()) {
    const ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

std::string do_write_dump(std::string_view reason, std::string_view detail) {
  const std::string body = build_crash_json(reason, detail);
  const std::string path = dump_path();
  if (!write_file_raw(path, body)) return {};
  std::fprintf(stderr, "dpmerge: crash dump written to %s\n", path.c_str());
  std::fflush(stderr);
  return path;
}

void signal_handler(int sig) {
  // Restore the default disposition first: if dumping re-faults, the
  // process still dies with the original signal instead of recursing.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = SIG_DFL;
  ::sigaction(sig, &sa, nullptr);
  if (!g_fatal_dumped.exchange(true)) {
    do_write_dump("signal", signal_name(sig));
  }
  ::raise(sig);
}

[[noreturn]] void terminate_handler() {
  std::string detail = "std::terminate";
  if (std::exception_ptr e = std::current_exception()) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      detail = ex.what();
    } catch (...) {
      detail = "non-std exception";
    }
  }
  if (!g_fatal_dumped.exchange(true)) {
    do_write_dump("terminate", detail);
  }
  // The dump is written; hand over to the previous handler (usually the
  // default, which aborts — and our SIGABRT handler already dumped, so the
  // g_fatal_dumped latch keeps it from dumping twice).
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

/// The calling thread's alternate signal stack, released as the thread
/// exits. A thread that already has one keeps it: sanitizer runtimes
/// install their own and unmap it themselves at thread exit.
class AltStack {
 public:
  AltStack() {
    stack_t cur;
    if (::sigaltstack(nullptr, &cur) == 0 &&
        (cur.ss_flags & SS_DISABLE) == 0) {
      return;
    }
    // Left uninitialised: the pages are only touched when a handler runs.
    mem_.reset(new char[kBytes]);
    stack_t ss;
    std::memset(&ss, 0, sizeof ss);
    ss.ss_sp = mem_.get();
    ss.ss_size = kBytes;
    if (::sigaltstack(&ss, nullptr) != 0) mem_.reset();
  }
  ~AltStack() {
    if (!mem_) return;
    stack_t ss;
    std::memset(&ss, 0, sizeof ss);
    ss.ss_flags = SS_DISABLE;
    ::sigaltstack(&ss, nullptr);
  }
  AltStack(const AltStack&) = delete;
  AltStack& operator=(const AltStack&) = delete;

 private:
  static constexpr std::size_t kBytes = std::size_t{256} << 10;
  std::unique_ptr<char[]> mem_;
};

}  // namespace

void install_crash_altstack() { thread_local const AltStack stack; }

void install_crash_handlers(const CrashOptions& opts) {
  std::string dir = opts.dir;
  if (dir.empty()) {
    const char* env = std::getenv("DPMERGE_CRASH_DIR");
    dir = (env != nullptr && env[0] != '\0') ? env : ".";
  }
  std::snprintf(g_dir, sizeof g_dir, "%s", dir.c_str());
  g_dump_on_check_failure.store(opts.dump_on_check_failure,
                                std::memory_order_relaxed);
  install_crash_altstack();
  if (g_installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = signal_handler;
  // On the alternate stack, so a stack overflow still gets its dump.
  sa.sa_flags = SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  for (const int sig : kSignals) ::sigaction(sig, &sa, nullptr);
  g_prev_terminate = std::set_terminate(terminate_handler);
}

void set_run_context(std::string_view tool, std::uint64_t seed) {
  const std::size_t n = std::min(tool.size(), sizeof(g_tool) - 1);
  std::memcpy(g_tool, tool.data(), n);
  g_tool[n] = '\0';
  g_seed.store(seed, std::memory_order_relaxed);
}

void set_current_stage(const char* name) {
  g_stage.store(name, std::memory_order_relaxed);
}

void note_check_failure(std::string_view site, std::string_view detail) {
  FlightRecorder& fr = FlightRecorder::instance();
  fr.record(FrKind::Mark,
            fr.intern(std::string("check.failure:") + std::string(site)),
            now_us());
  if (g_installed.load(std::memory_order_relaxed) &&
      g_dump_on_check_failure.load(std::memory_order_relaxed) &&
      !g_check_dumped.exchange(true)) {
    std::string d(site);
    if (!detail.empty()) {
      d += ": ";
      d += detail;
    }
    do_write_dump("check-failure", d);
  }
}

std::string build_crash_json(std::string_view reason, std::string_view detail) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"schema\":\"dpmerge-crash-v1\"";
  out += ",\"reason\":";
  json_append_quoted(out, reason);
  out += ",\"detail\":";
  json_append_quoted(out, detail);
  out += ",\"pid\":" + std::to_string(::getpid());
  out += ",\"timestamp_unix\":" +
         std::to_string(static_cast<std::int64_t>(std::time(nullptr)));
  out += ",\"build\":{\"compiler\":";
#if defined(__VERSION__)
  json_append_quoted(out, __VERSION__);
#else
  out += "\"\"";
#endif
  out += ",\"sanitizer\":";
#if defined(__SANITIZE_ADDRESS__)
  out += "\"address\"";
#elif defined(__SANITIZE_THREAD__)
  out += "\"thread\"";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  out += "\"address\"";
#elif __has_feature(thread_sanitizer)
  out += "\"thread\"";
#else
  out += "\"\"";
#endif
#else
  out += "\"\"";
#endif
  out += "},\"run\":{\"tool\":";
  json_append_quoted(out, g_tool);
  out += ",\"seed\":" +
         std::to_string(g_seed.load(std::memory_order_relaxed));
  out += "},\"stage\":";
  const char* stage = g_stage.load(std::memory_order_relaxed);
  json_append_quoted(out, stage != nullptr ? stage : "");
  out += ",\"peak_rss_mb\":" + json_number(MemorySampler::peak_rss_mb());
  out += ",";
  FlightRecorder::instance().append_crash_json(out);
  out += "}";
  return out;
}

}  // namespace dpmerge::obs
