#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/obs/crash.h"
#include "dpmerge/obs/flow_report.h"

namespace dpmerge::obs {

/// Shared observability CLI contract — one parser for the benches,
/// dpmerge-lint and dpmerge-explain, so every binary that runs flows
/// accepts the same artifact flags (in both `--flag value` and
/// `--flag=value` spellings):
///   --stats-json <path>     per-(design x flow) FlowReports as JSON
///   --trace <path>          Chrome trace_event JSON of the run
///   --profile <path>        hierarchical profile JSON (dpmerge-profile
///                           renders/diffs it)
///   --events <path>         JSONL structured event log
/// --trace, --profile and --events render one flight-recorder capture of
/// the whole run (FlightRecorder::set_capture), drained once at exit.
///   --seed <n>              stimulus seed, recorded in artifacts (default 1)
///   --stats-deterministic   zero wall-clock/memory fields in artifacts so
///                           repeated runs are byte-identical
struct ObsArgs {
  std::string stats_json;
  std::string trace;
  std::string profile;
  std::string events;
  std::uint64_t seed = 1;
  bool deterministic = false;
};

/// Tries to consume argv[i] (and, for `--flag value` spellings, argv[i+1])
/// as one of the shared flags above. Returns true and advances `i` past the
/// consumed argument(s) on a match; leaves `i` untouched otherwise. A flag
/// missing its value prints to stderr and exits 2 — the CLI contract every
/// harness already follows.
bool parse_obs_arg(int argc, char** argv, int& i, ObsArgs* out);

/// The usage-text fragment describing the shared flags (for --help).
const char* obs_usage();

/// Owns a run's observability lifecycle: the constructor brings the flight
/// recorder up (installing the thread-pool telemetry hooks), installs the
/// crash handlers (dumps land in $DPMERGE_CRASH_DIR or the cwd), stamps
/// run provenance (tool name + seed) into future crash dumps, and turns the
/// recorder's capture on when `--trace`, `--profile` or `--events` asked
/// for it. The destructor writes every requested artifact. The harness
/// fills `reports` (in deterministic cell order) before the session is
/// destroyed.
class ArtifactSession {
 public:
  /// `crash` tunes the handler install: tools that *expect* to catch
  /// CheckFailure (dpmerge-lint provokes them on purpose) pass
  /// dump_on_check_failure=false so handled failures don't strew dumps.
  ArtifactSession(std::string name, ObsArgs args, CrashOptions crash = {});
  ~ArtifactSession();

  ArtifactSession(const ArtifactSession&) = delete;
  ArtifactSession& operator=(const ArtifactSession&) = delete;

  std::vector<FlowReport> reports;

 private:
  bool captures() const;

  std::string name_;
  ObsArgs args_;
};

}  // namespace dpmerge::obs
