#pragma once

#include <string>

#include "dpmerge/netlist/netlist.h"
#include "dpmerge/netlist/sta.h"

namespace dpmerge::opt {

/// Timing-driven gate-level optimisation, standing in for the proprietary
/// optimiser of the paper's Table 2 (see DESIGN.md §1): iteratively improves
/// the longest path toward a target delay by
///   (a) upsizing cells on the critical path (X1 -> X2 -> X4), and
///   (b) buffering heavily loaded critical nets.
/// Timing is maintained incrementally (`netlist::IncrementalSta`): every
/// move costs its timing cone. A drive change re-propagates arrivals over
/// the affected forward cone only, a rejected sizing trial is reverted from
/// the timer's undo log, and a buffer move is a cone update from the
/// buffered net's driver (the timer keeps its own order and reader lists,
/// so no move builds the netlist's view or re-times the whole netlist).
/// Runtime therefore grows with the number of moves and the size of their
/// cones — the property Table 2 measures (smaller, faster initial netlists
/// need far less optimisation effort).
struct TimingOptOptions {
  double target_ns = 0.0;
  int max_moves = 200000;
  /// Nets with load above this (in cap units) are buffer candidates.
  double buffer_load_threshold = 12.0;
  /// After the target is met, walk the upsized cells off the critical path
  /// and shrink any whose downsizing keeps the target met (area recovery —
  /// commercial optimisers always finish with this).
  bool recover_area = true;
  /// Debug: after every incremental timing update, cross-check arrivals and
  /// the longest path against a full `Sta::analyze` and throw
  /// `std::logic_error` on divergence. Expensive — test/debug builds only.
  bool cross_check_sta = false;
};

struct TimingOptResult {
  double initial_ns = 0.0;
  double final_ns = 0.0;
  double initial_area = 0.0;
  double final_area = 0.0;
  int moves = 0;
  double runtime_sec = 0.0;
  bool met_target = false;

  std::string to_string() const;
};

class TimingOptimizer {
 public:
  explicit TimingOptimizer(const netlist::CellLibrary& lib) : lib_(lib) {}

  /// Optimises `net` in place until the target is met or no move improves
  /// the longest path.
  TimingOptResult optimize(netlist::Netlist& net,
                           const TimingOptOptions& opt) const;

 private:
  const netlist::CellLibrary& lib_;
};

}  // namespace dpmerge::opt
