#pragma once

#include <string>
#include <vector>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist {

/// Static timing analysis over the linear delay model (cell intrinsic +
/// drive resistance x capacitive load) and the area report. Primary inputs
/// arrive at t = 0, matching the paper's experimental setup ("we set the
/// arrival times at all inputs in each testcase to 0").
struct TimingReport {
  double longest_path_ns = 0.0;
  /// Arrival time per net id.
  std::vector<double> arrival;
  /// Net ids of the critical path, from a primary input to the latest
  /// output, in order.
  std::vector<NetId> critical_path;
};

class Sta {
 public:
  explicit Sta(const CellLibrary& lib) : lib_(lib) {}

  /// Full analysis: `IncrementalSta(n, lib).report()`, so the full and the
  /// incremental timer share one propagation loop.
  TimingReport analyze(const Netlist& n) const;

  /// Capacitive load per net id (sum of reader-pin input caps), computed in
  /// one pass over the gates. Callers that need several nets' loads must
  /// use this rather than probing nets one at a time.
  std::vector<double> net_loads(const Netlist& n) const;

  /// Total cell area.
  double area(const Netlist& n) const;

  /// Area in the paper's reporting convention (scaled down by 100).
  double area_scaled(const Netlist& n) const { return area(n) / 100.0; }

 private:
  const CellLibrary& lib_;
};

/// Incremental arrival-time maintenance for gate-sizing loops. A full
/// `Sta::analyze` is O(gates) per query; resizing one gate only perturbs
///   (a) the loads of that gate's input nets (its input caps changed), and
///   (b) delays/arrivals in the forward cone of the gate and of its input
///       nets' drivers,
/// so `update_drive_change` walks a topologically-ordered worklist over
/// exactly that cone and stops where arrivals settle. Invariants maintained
/// between calls (the critical path is derived from them, not stored):
///   - `load_[n]`    == sum of reader-pin input caps of net n
///   - `arrival_[n]` == from-scratch arrival of net n
/// The topological order is `Netlist::topo_gates()`: gate-index order while
/// `index_topological()` holds, so the worklist is keyed by gate index and
/// no order is built; otherwise the view's Kahn order and `topo_pos`.
/// Reader lists come from the netlist's cached `NetlistView`, fetched afresh
/// on every call (no pointer into it is kept). Any structural edit (adding
/// gates, rewiring inputs) invalidates the timing state; call `rebuild()`
/// afterwards.
class IncrementalSta {
 public:
  IncrementalSta(const Netlist& n, const CellLibrary& lib);

  /// Recomputes everything from scratch (use after topology changes).
  void rebuild();

  /// Call after changing gate `g`'s drive. Recomputes the loads of `g`'s
  /// input nets from their reader lists and re-propagates arrivals over
  /// the affected forward cone only.
  void update_drive_change(GateId g);

  double longest_path_ns() const { return longest_; }
  double arrival(NetId n) const {
    return arrival_[static_cast<std::size_t>(n.value)];
  }
  const std::vector<double>& arrivals() const { return arrival_; }
  double load(NetId n) const {
    return load_[static_cast<std::size_t>(n.value)];
  }

  /// Critical path traced on demand from the latest-arriving output bit
  /// back through each driver's `latest_input`.
  std::vector<NetId> critical_path() const;

  /// Full report in the `Sta::analyze` format (the rvalue form moves the
  /// arrival array out instead of copying it).
  TimingReport report() const&;
  TimingReport report() &&;

 private:
  void recompute_gate(int gate_idx);
  /// The latest-arriving input of `g`; of equally late ones, the last pin.
  NetId latest_input(const Gate& g) const;
  void refresh_longest();

  const Netlist& net_;
  const CellLibrary& lib_;
  std::vector<double> arrival_;  // per net
  std::vector<double> load_;     // per net
  double longest_ = 0.0;
  NetId longest_net_{};

  // Worklist scratch, per gate: sized by `update_drive_change`, kept
  // across updates to avoid reallocating it.
  std::vector<char> queued_;
};

}  // namespace dpmerge::netlist
