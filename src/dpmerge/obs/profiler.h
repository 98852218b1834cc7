#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dpmerge/obs/flight_recorder.h"

namespace dpmerge::obs {

/// Hierarchical profiler (DESIGN.md §14): aggregates a drained
/// flight-recorder capture into a self/total call tree. Span nesting is
/// reconstructed per thread (a span's parent is the span open on the same
/// thread when it began), then identical stack paths merge across threads —
/// so a `synth.csa.reduce` that ran on four workers under `flow.synth` is
/// one node with count 4. A pool task (`pool.task`) nests under the node
/// its submitting thread had open at the job's `pool.job` mark, and the
/// spans the task ran nest under it, so a task's time is counted once, on
/// the path that asked for it. Counter events attach to the node open on
/// their thread when they fired, which is how per-stage
/// `stage.rss_delta_kb` memory deltas land on their stage.

/// One aggregated call-tree node.
struct ProfileNode {
  std::string name;
  std::int64_t count = 0;     ///< completed occurrences
  std::int64_t total_us = 0;  ///< inclusive wall time over all occurrences
  std::int64_t self_us = 0;   ///< total_us minus children's total (>= 0)
  std::int64_t p50_us = 0;    ///< nearest-rank median occurrence duration
  std::int64_t p99_us = 0;    ///< nearest-rank p99 occurrence duration
  std::int64_t rss_delta_kb = 0;  ///< summed `*.rss_delta_kb` counter events
  std::map<std::string, std::int64_t> counters;  ///< other counter events
  std::vector<ProfileNode> children;  ///< ordered by total_us desc, name

  const ProfileNode* child(std::string_view name) const;
};

struct Profile {
  ProfileNode root;           ///< name "(root)"; totals sum the top level
  std::int64_t events = 0;    ///< flight-recorder events consumed
  std::int64_t dropped = 0;   ///< span/task ends with no matching open
                              ///< (ring eviction, or ends racing the drain)
  double peak_rss_mb = 0.0;   ///< process high-water mark at build time
};

/// Builds the tree from time-ordered drained events
/// (FlightRecorder::drain_capture, or a crash-dump ring drain). Tolerant of
/// ring eviction: an end without a begin is attributed at the current stack
/// position by its own recorded duration; a begin without an end
/// contributes nothing (its time is unknowable).
Profile build_profile(const std::vector<FrEvent>& events);

struct ProfileJsonOptions {
  /// Zeroes every duration and memory field and orders children by name —
  /// the `--stats-deterministic` contract for profile artifacts.
  bool zero_times = false;
};

/// `{"schema":"dpmerge-profile-v1",...,"tree":{...}}` (one object, no
/// trailing newline inside; the writer appends one).
void write_profile_json(std::ostream& os, const Profile& p,
                        const ProfileJsonOptions& opt = {});

/// Indented self/total tree with count, p50/p99 and per-node RSS deltas.
void write_profile_text(std::ostream& os, const Profile& p);

/// Flame-graph folded stacks: one `a;b;c <self_us>` line per node with
/// nonzero self time — the input format of flamegraph.pl / speedscope.
void write_profile_folded(std::ostream& os, const Profile& p);

/// Parses a document written by write_profile_json. Unknown fields are
/// ignored (artifacts stay readable across schema growth).
bool read_profile_json(std::string_view text, Profile* out,
                       std::string* error = nullptr);

/// Path-by-path comparison of two profiles (rendered text, sorted by
/// absolute total-time delta): regressions positive, improvements negative.
std::string profile_diff_text(const Profile& before, const Profile& after);

}  // namespace dpmerge::obs
