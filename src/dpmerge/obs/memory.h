#pragma once

#include <cstdint>

namespace dpmerge::obs {

/// Process memory readings from /proc/self/status (Linux procfs). Every
/// value is in KiB as the kernel reports it; 0 where procfs is unavailable
/// (non-Linux, restricted mounts) so callers degrade to "no memory data"
/// instead of failing. This is the one RSS source in the tree: the bench
/// harnesses, the per-stage profiler deltas and the crash dump all read
/// through it (the historical one-off `rss_mb` logic in bench/scale lived
/// in bench_util.h and is now a wrapper over this).
class MemorySampler {
 public:
  /// Current resident set (VmRSS), KiB.
  static std::int64_t current_rss_kb();

  /// Peak resident set (VmHWM), KiB. A high-water mark: it only grows over
  /// the process lifetime.
  static std::int64_t peak_rss_kb();

  static double peak_rss_mb() {
    return static_cast<double>(peak_rss_kb()) / 1024.0;
  }

  /// Resets the peak (VmHWM) to the current resident set by writing 5 to
  /// /proc/self/clear_refs, so a later peak_rss_kb() covers only what ran
  /// since. False where the write is refused (non-Linux, restricted
  /// procfs); the peak then stays the process-lifetime one.
  static bool reset_peak();
};

}  // namespace dpmerge::obs
