#pragma once

// The benchmark's three workloads. Each is a fixed list of operations (one
// design through one flow); set-up builds the designs and any reference
// results, and `run` executes one operation and checks its outputs.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dpmerge/cluster/partition.h"
#include "dpmerge/dfg/graph.h"
#include "trace.h"

namespace dpbench {

/// What one operation produced. The counters and QoR fields are
/// deterministic: they must repeat exactly across runs and pool widths.
struct OpOutcome {
  bool ok = true;
  std::string why;          ///< first failed check, when !ok
  double op_ms = 0.0;       ///< wall time of the operation
  std::int64_t nodes = 0;   ///< DFG nodes of the operation's input graph

  bool has_netlist = false;
  double delay_ns = 0.0;    ///< post-synthesis STA delay
  double area = 0.0;        ///< post-synthesis area (library units / 100)
  std::int64_t gates = 0;
  std::int64_t nets = 0;
  std::int64_t csa_rows = 0;
  std::int64_t cpa_count = 0;
  std::int64_t verify_trials = 0;

  std::int64_t clusters = 0;    ///< clusters over every partition built
  std::int64_t iterations = 0;  ///< maximal-clustering iterations

  bool has_opt = false;
  std::int64_t moves = 0;
  bool met_target = false;
  double opt_ms = 0.0;

  /// Traced operations only: resident-memory growth over the operation's
  /// start up to the end of synthesis, in MB; negative when unavailable.
  double synth_rss_delta_mb = -1.0;
  /// Traced new-merge operations only: a serial `prepare_new_merge` of
  /// the same input, run outside the operation span.
  double serial_prepare_ms = 0.0;

  /// One line of every deterministic field, for the self-test.
  std::string fingerprint() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds designs and reference results. `threads` is the pool width the
  /// operations run clustering at.
  virtual void setup(std::uint64_t seed, int threads) = 0;
  virtual int op_count() const = 0;
  virtual std::string op_label(int i) const = 0;
  virtual bool builds_netlists() const = 0;
  /// Whole rounds an untraced run makes however short `--seconds` is.
  /// min_rounds() x op_count() fixes the reported tail percentile.
  virtual int min_rounds() const = 0;

  /// Runs operation `i`. With a tracer, flows are broken into their public
  /// steps and each call is wrapped in a span under one "op" span; without
  /// one, the workload calls the library exactly as a user would. Traced
  /// new-merge operations are followed by probes outside the "op" span.
  /// Throws on library errors.
  OpOutcome run(int i, Tracer* tr);

 protected:
  /// The input and pool-width partition of a traced new-merge operation,
  /// kept for the probes that follow it.
  struct Probe {
    const dpmerge::dfg::Graph* input = nullptr;
    dpmerge::dfg::Graph owned;  ///< backs `input` when compiled in the op
    dpmerge::cluster::Partition partition;
  };

  /// The operation itself; fills `probe` (when non-null) for new-merge.
  virtual OpOutcome execute(int i, Tracer* tr, Probe* probe) = 0;

  int threads_ = 1;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// Resets the kernel's resident-set high-water mark (VmHWM) to the current
/// RSS by writing 5 to /proc/self/clear_refs. False where that is refused.
bool reset_peak_rss();

}  // namespace dpbench
