#include "dpmerge/obs/session.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "dpmerge/obs/crash.h"
#include "dpmerge/obs/flight_recorder.h"
#include "dpmerge/obs/profiler.h"

namespace dpmerge::obs {

namespace {

/// Matches `--flag value` / `--flag=value`; on a match stores the value and
/// advances `i` past everything consumed.
bool flag_value(int argc, char** argv, int& i, const char* flag,
                std::string* out) {
  const std::string_view arg = argv[i];
  const std::size_t n = std::strlen(flag);
  if (arg.substr(0, n) != flag) return false;
  if (arg.size() == n) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag);
      std::exit(2);
    }
    *out = argv[++i];
    return true;
  }
  if (arg[n] == '=') {
    *out = std::string(arg.substr(n + 1));
    return true;
  }
  return false;
}

std::ofstream open_artifact(const std::string& path, const char* what) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "failed to write %s to '%s'\n", what, path.c_str());
  }
  return os;
}

}  // namespace

bool parse_obs_arg(int argc, char** argv, int& i, ObsArgs* out) {
  std::string v;
  if (flag_value(argc, argv, i, "--stats-json", &v)) {
    out->stats_json = v;
    return true;
  }
  if (flag_value(argc, argv, i, "--trace", &v)) {
    out->trace = v;
    return true;
  }
  if (flag_value(argc, argv, i, "--profile", &v)) {
    out->profile = v;
    return true;
  }
  if (flag_value(argc, argv, i, "--events", &v)) {
    out->events = v;
    return true;
  }
  if (flag_value(argc, argv, i, "--seed", &v)) {
    out->seed = std::strtoull(v.c_str(), nullptr, 10);
    return true;
  }
  if (std::string_view(argv[i]) == "--stats-deterministic") {
    out->deterministic = true;
    return true;
  }
  return false;
}

const char* obs_usage() {
  return
      "  --stats-json <path>    per-flow stage reports as JSON\n"
      "  --trace <path>         Chrome trace_event JSON\n"
      "  --profile <path>       hierarchical profile JSON (see "
      "dpmerge-profile)\n"
      "  --events <path>        JSONL flight-recorder event log\n"
      "  --seed <n>             stimulus seed (default 1)\n"
      "  --stats-deterministic  zero wall-clock/memory fields in artifacts\n";
}

bool ArtifactSession::captures() const {
  return !args_.trace.empty() || !args_.profile.empty() ||
         !args_.events.empty();
}

ArtifactSession::ArtifactSession(std::string name, ObsArgs args,
                                 CrashOptions crash)
    : name_(std::move(name)), args_(std::move(args)) {
  // Bring the recorder up before any work runs: the first instance() call
  // installs the thread-pool telemetry hooks.
  FlightRecorder& fr = FlightRecorder::instance();
  install_crash_handlers(crash);
  set_run_context(name_, args_.seed);
  if (captures()) fr.set_capture(true);
}

ArtifactSession::~ArtifactSession() {
  if (!args_.stats_json.empty()) {
    if (std::ofstream os = open_artifact(args_.stats_json, "stats")) {
      StatsJsonOptions opt;
      opt.zero_times = args_.deterministic;
      write_stats_json(os, name_, args_.seed, reports, opt);
    }
  }
  // The trace, the profile and the event log render one capture.
  if (captures()) {
    FlightRecorder& fr = FlightRecorder::instance();
    fr.set_capture(false);
    const std::vector<FrEvent> events = fr.drain_capture();
    if (!args_.trace.empty()) {
      if (std::ofstream os = open_artifact(args_.trace, "trace")) {
        write_chrome_trace(os, events);
      }
    }
    if (!args_.profile.empty()) {
      if (std::ofstream os = open_artifact(args_.profile, "profile")) {
        ProfileJsonOptions opt;
        opt.zero_times = args_.deterministic;
        write_profile_json(os, build_profile(events), opt);
      }
    }
    if (!args_.events.empty()) {
      if (std::ofstream os = open_artifact(args_.events, "events")) {
        write_events_jsonl(os, events);
      }
    }
  }
}

}  // namespace dpmerge::obs
