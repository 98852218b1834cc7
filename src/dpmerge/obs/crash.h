#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dpmerge::obs {

/// Crash diagnostics (DESIGN.md §14, docs/CRASHDUMP.md).
///
/// When a run dies — SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL, an unhandled
/// exception reaching std::terminate, or (opt-in) a CheckPolicy fatal path —
/// the installed handlers serialise everything the flight recorder knows
/// into `dpmerge-crash-<pid>.json` before the process goes down: the drained
/// event rings, each thread's active span stack and context label, the
/// current flow stage, peak RSS, and build/seed provenance. The file lands
/// in $DPMERGE_CRASH_DIR (or CrashOptions::dir, or the cwd), and its path is
/// printed to stderr.
///
/// The signal path is deliberately *best-effort*, not strictly
/// async-signal-safe: building the JSON allocates. A crash corrupting the
/// heap can therefore lose the dump — the handler reinstalls the default
/// disposition first, so a secondary fault still terminates the process with
/// the original signal instead of looping. For the hang/tail-latency cases
/// the recorder exists for, the heap is healthy and the dump is reliable;
/// the fault-injection tests cover exactly this.
struct CrashOptions {
  /// Output directory. Empty: $DPMERGE_CRASH_DIR if set, else ".".
  std::string dir;
  /// Also write a dump (once per process) when a CheckPolicy fatal path
  /// throws CheckFailure. The exception still propagates normally.
  bool dump_on_check_failure = true;
};

/// Installs the signal and std::terminate handlers process-wide. Idempotent;
/// a second call only updates the options.
void install_crash_handlers(const CrashOptions& opts = {});

/// Gives the calling thread an alternate signal stack (once per thread).
/// The handlers run on it, so a stack overflow still writes its dump. The
/// installing thread gets one from install_crash_handlers, and every thread
/// that records into the flight recorder gets one on its first event.
void install_crash_altstack();

/// Run provenance stamped into every dump ("run": {"tool", "seed"}).
/// ArtifactSession sets this from the CLI; safe to call any time.
void set_run_context(std::string_view tool, std::uint64_t seed);

/// The flow stage most recently entered, process-wide (FlowScope maintains
/// it; `name` must have program lifetime). Per-thread truth lives in each
/// thread's span stack — this is the headline "where were we" field for
/// single-flow runs. nullptr clears.
void set_current_stage(const char* name);

/// Hook for CheckPolicy fatal paths (guard.cpp): records a flight-recorder
/// mark naming `site`, and — when handlers are installed with
/// dump_on_check_failure — writes a "check-failure" dump (once per process).
/// Never throws; the caller throws CheckFailure right after.
void note_check_failure(std::string_view site, std::string_view detail);

/// Builds the full crash-dump JSON document (schema "dpmerge-crash-v1").
/// Exposed so tests can validate the schema without crashing.
std::string build_crash_json(std::string_view reason, std::string_view detail);

}  // namespace dpmerge::obs
