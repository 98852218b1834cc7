#pragma once

#include <cstdint>
#include <limits>
#include <span>
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
///   - `load_[n]`    == sum of reader-pin input caps of net n, added in
///                      gate order (the order of a full pass)
///   - `arrival_[n]` == from-scratch arrival of net n
///
/// Off index order, the constructor sorts the netlist once (`kahn_order`)
/// and keeps that order for the cone updates. The rest of their state is
/// built on the first update (or `readers` call) and never by the
/// constructor, so `Sta::analyze` builds none of it:
///   - a dense topological order of the gates: gate-index order while the
///     netlist is index-topological (nothing stored until a buffer
///     insertion moves a gate out of it), otherwise the Kahn order
///     (`order_`, and `pos_`, its inverse);
///   - a reader CSR over every net (one entry per reading pin, in gate
///     order), from `build_reader_csr`;
///   - the worklist, a bitset over order positions that is all clear
///     between updates. An update sets the seeds' bits and sweeps upward
///     from the lowest set word, so cone gates are re-timed in topological
///     order, each at most once;
///   - an undo log: every load an update writes and every arrival it
///     changes, with the old value, and the old longest path, so
///     `undo_last_update` restores the state before a rejected trial bit
///     for bit.
/// A buffer insertion is a cone update too (`update_buffer_insertion`): it
/// places the buffer in the order and patches two reader lists, so neither
/// a new sort nor a full pass is needed. Any other structural edit
/// invalidates the timing state: build a new timer over the edited netlist.
class IncrementalSta {
 public:
  /// The one full pass: loads, arrivals and the longest path from scratch.
  IncrementalSta(const Netlist& n, const CellLibrary& lib);

  /// Call after changing gate `g`'s drive. Recomputes the loads of `g`'s
  /// input nets from their reader lists and re-propagates arrivals over
  /// the affected forward cone only.
  void update_drive_change(GateId g);

  /// Restores the loads, arrivals and longest path to their values before
  /// the last `update_drive_change`, after the caller has restored the
  /// drive. Valid once, right after that update; throws
  /// `std::logic_error` otherwise.
  void undo_last_update();

  /// Call after `buffer`, the netlist's last gate, was appended on a net w
  /// (its input) and some of w's reader pins were rewired onto the
  /// buffer's output, the netlist's last net; no other edit since the last
  /// update. Inserts the buffer into the order after w's driver, patches
  /// the reader lists of w and of the new net, recomputes both loads and
  /// re-propagates arrivals from w's driver and the buffer.
  void update_buffer_insertion(GateId buffer);

  /// Gates reading net `n`, one entry per reading pin, in gate order. Valid
  /// until the next update.
  std::span<const std::int32_t> readers(NetId n);
  /// Gate `g`'s position in the timer's topological order (-1: on a cycle).
  std::int32_t order_position(GateId g);

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

  /// Full report in the `Sta::analyze` format; moves the arrival array out
  /// instead of copying it.
  TimingReport report() &&;

 private:
  /// Re-times gate `gate_idx`, whose output net is `out`.
  void recompute_gate(int gate_idx, NetId out);
  /// The latest-arriving input of `g`; of equally late ones, the last pin.
  NetId latest_input(const Gate& g) const;
  void refresh_longest();

  /// Builds the order, reader lists and worklist on first use.
  void ensure_structure();
  /// Sets `pos_` from `order_[from..]`.
  void index_positions(std::size_t from);
  /// Gate `g`'s position in the order (-1: on a cycle).
  std::int32_t position(int g) const {
    return order_.empty() ? g : pos_[static_cast<std::size_t>(g)];
  }
  /// Net `n`'s reader list; the structure must be built.
  std::span<const std::int32_t> readers_of(NetId n) const {
    const auto i = static_cast<std::size_t>(n.value);
    return {readers_.data() + reader_begin_[i],
            readers_.data() + reader_begin_[i + 1]};
  }
  /// Sets net `n`'s load from its reader list, logging the old one.
  void reload(NetId n);
  /// Puts gate `gate_idx` on the worklist.
  void enqueue(int gate_idx);
  /// Re-times the queued gates in order, queueing the readers of every net
  /// whose arrival changed; logs each changed arrival.
  void propagate();

  const Netlist& net_;
  const CellLibrary& lib_;
  std::vector<double> arrival_;  // per net
  std::vector<double> load_;     // per net
  double longest_ = 0.0;
  NetId longest_net_{};

  // Position -> gate, set by the constructor; empty while gate-index order
  // is the order.
  std::vector<GateId> order_;
  // Owned structure, empty until the first update.
  // Gate -> position (-1: on a cycle); empty while `order_` is.
  std::vector<std::int32_t> pos_;
  // Reader CSR (`build_reader_csr`).
  std::vector<std::int32_t> reader_begin_;
  std::vector<std::int32_t> readers_;
  std::vector<std::uint64_t> pending_;  // worklist bit per position
  std::size_t lo_word_ = std::numeric_limits<std::size_t>::max();
  std::size_t hi_word_ = 0;  // set words lie in [lo_word_, hi_word_]

  // Undo log of the last update.
  struct Old {
    std::int32_t net;
    double value;
  };
  std::vector<Old> old_loads_, old_arrivals_;
  double old_longest_ = 0.0;
  NetId old_longest_net_{};
  bool undoable_ = false;
};

}  // namespace dpmerge::netlist
