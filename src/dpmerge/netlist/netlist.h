#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dpmerge/netlist/cell.h"
#include "dpmerge/support/bitvector.h"
#include "dpmerge/support/inline_list.h"
#include "dpmerge/support/pod_buffer.h"
#include "dpmerge/support/sign.h"

namespace dpmerge::netlist {

struct NetId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const NetId&) const = default;
};

/// A gate's id is its index in `Netlist::gates()`.
struct GateId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const GateId&) const = default;
};

/// The input pins handed to `add_gate`. The capacity is the widest cell's
/// arity (MUX2); appending past it throws `std::length_error` in every
/// build type.
using PinList = support::InlineList<NetId, kMaxCellInputs>;

/// One cell instance. Its id is its index in the gate array, its pin count
/// is `cell_input_count(type)` and its output net is `Netlist::output(id)`;
/// none of them is stored.
struct Gate {
  CellType type = CellType::INV;
  std::uint8_t drive = 0;  ///< drive-strength variant index (0 = X1)
  std::array<NetId, kMaxCellInputs> pins{};  ///< unused slots: NetId{}

  std::span<const NetId> inputs() const {
    return {pins.data(), static_cast<std::size_t>(cell_input_count(type))};
  }
};
static_assert(sizeof(Gate) == 16, "gates are stored flat; keep them small");
static_assert(std::is_trivially_copyable_v<Gate>,
              "the gate array grows by realloc (support::PodBuffer)");

class Netlist;

/// Builds the reader CSR of `n`: the gates reading net i are
/// readers[begin[i]..begin[i+1]), one entry per reading pin, in gate order,
/// for every net (constants and primary inputs included).
void build_reader_csr(const Netlist& n, std::vector<std::int32_t>& begin,
                      std::vector<std::int32_t>& readers);

/// The Kahn-LIFO topological order (inputs first; gates on or downstream
/// of a cycle left out, so a result shorter than `gate_count()` flags one),
/// whatever the index-order bit. Sorts on every call (counted as
/// `netlist.kahn_sorts`) over a reader CSR of its own. Artifacts whose text
/// follows this order call it directly (the gate numbering of `simplify`,
/// the finding order of `check::lint_netlist_deadlogic`); walkers that need
/// any topological order take `Netlist::topo_gates()` once and keep it.
std::vector<GateId> kahn_order(const Netlist& n);

/// Gates in topological order (inputs first), as returned by
/// `Netlist::topo_gates()`: gate-index order `0..n` while the netlist's
/// index-order bit holds (nothing is allocated), otherwise the Kahn-LIFO
/// order of `kahn_order`, owned. A range of `GateId`s that describes the
/// netlist as it was when taken.
class GateOrder {
 public:
  class iterator {
   public:
    using value_type = GateId;
    using difference_type = std::ptrdiff_t;

    GateId operator*() const { return order_ ? order_[pos_] : GateId{pos_}; }
    iterator& operator++() {
      ++pos_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++pos_;
      return old;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class GateOrder;
    iterator(const GateId* order, int pos) : order_(order), pos_(pos) {}
    const GateId* order_ = nullptr;  ///< null: index order
    int pos_ = 0;
  };

  std::size_t size() const { return static_cast<std::size_t>(size_); }
  GateId operator[](std::size_t i) const {
    return kahn_.empty() ? GateId{static_cast<int>(i)} : kahn_[i];
  }
  iterator begin() const { return {data(), 0}; }
  iterator end() const { return {data(), size_}; }

 private:
  friend class Netlist;
  /// Index order over `gates` gates.
  explicit GateOrder(int gates) : size_(gates) {}
  explicit GateOrder(std::vector<GateId> kahn)
      : kahn_(std::move(kahn)), size_(static_cast<int>(kahn_.size())) {}
  const GateId* data() const { return kahn_.empty() ? nullptr : kahn_.data(); }

  std::vector<GateId> kahn_;  ///< empty: index order
  int size_;
};

/// A multi-bit signal: nets in LSB-first order. Mirrors BitVector semantics
/// (resize = truncate or replicate the top net / tie to 0).
struct Signal {
  std::vector<NetId> bits;
  int width() const { return static_cast<int>(bits.size()); }
  NetId bit(int i) const { return bits[static_cast<std::size_t>(i)]; }
  NetId msb() const { return bits.back(); }
};

struct Bus {
  std::string name;
  Signal signal;
};

/// Structural gate-level netlist over the cell library, with two designated
/// constant nets (undriven; simulation and timing treat them as stable 0/1
/// with arrival time 0).
///
/// Gate construction helpers return the freshly driven output net. The
/// constant-folding helpers (`and2`, `or2`, ...) peephole away gates whose
/// inputs are the constant nets — width adaptation and masked partial
/// products generate many of those.
///
/// Nets: every net is a *source* (a constant or a `new_net()`) or the
/// output of exactly one gate, numbered in creation order. Only the runs of
/// consecutive sources are stored, so gate g drives net g + (sources created
/// before g), and net n is driven by gate n - (sources below n) unless n is
/// a source. `output` and `driver_id` binary-search the runs; a walk over
/// many gates uses an `OutputCursor`.
///
/// Index order: `add_gate` appends a gate whose output is a fresh net no
/// gate reads yet, so a netlist built by it alone lists every gate after the
/// drivers of its inputs. `index_topological()` records that. Two mutators
/// can break it, and clear it for good: `set_input` to a net whose driver
/// is not earlier than the gate, and `mutable_gates()`.
///
/// Thread-safety: a const Netlist holds no cache, so every const accessor
/// (and every pass over a const Netlist) is safe to call concurrently.
class Netlist {
 public:
  NetId new_net();
  NetId const0() const { return NetId{0}; }
  NetId const1() const { return NetId{1}; }
  bool is_const(NetId n) const { return n.value <= 1; }

  /// Raw gate creation (no folding): appends a gate driving a fresh net.
  /// It, `set_drive` and `set_input` throw `std::invalid_argument` (in every
  /// build type) on a pin count, drive or pin the cell does not have.
  NetId add_gate(CellType t, PinList inputs);

  /// Sets a gate's drive-strength variant. Not structural: the index-order
  /// bit stays.
  void set_drive(GateId g, int drive) {
    if (drive < 0 || drive >= kDriveLevels) {
      throw std::invalid_argument("set_drive: no such drive");
    }
    gates_[static_cast<std::size_t>(g.value)].drive =
        static_cast<std::uint8_t>(drive);
  }
  /// Rewires input pin `pin` of gate `g` to net `n`. Structural. Clears
  /// the index-order bit unless `n` is undriven or driven by an earlier
  /// gate.
  void set_input(GateId g, int pin, NetId n);

  // Folding helpers.
  NetId inv(NetId a);
  NetId buf(NetId a);
  NetId and2(NetId a, NetId b);
  NetId or2(NetId a, NetId b);
  NetId nand2(NetId a, NetId b);
  NetId nor2(NetId a, NetId b);
  NetId xor2(NetId a, NetId b);
  NetId xnor2(NetId a, NetId b);
  NetId mux2(NetId d0, NetId d1, NetId sel);

  /// Full adder from primitive gates: returns {sum, carry}.
  std::pair<NetId, NetId> full_adder(NetId a, NetId b, NetId c);
  /// Half adder: returns {sum, carry}.
  std::pair<NetId, NetId> half_adder(NetId a, NetId b);

  /// Signal-level helpers.
  Signal constant_signal(const BitVector& v);
  Signal resize(const Signal& s, int width, Sign sign);
  Signal invert(const Signal& s);

  // Primary interface buses.
  void add_input(const std::string& name, const Signal& s) {
    inputs_.push_back(Bus{name, s});
  }
  void add_output(const std::string& name, const Signal& s) {
    outputs_.push_back(Bus{name, s});
  }
  const std::vector<Bus>& inputs() const { return inputs_; }
  const std::vector<Bus>& outputs() const { return outputs_; }

  /// The gates, by index. Valid until the next `add_gate`.
  std::span<const Gate> gates() const { return gates_.span(); }
  /// Unchecked write access for the verifier tests' corruption cases; real
  /// transforms use `set_drive` / `set_input`. Clears the index-order bit.
  std::span<Gate> mutable_gates() {
    index_topological_ = false;
    return gates_.span();
  }
  int gate_count() const { return static_cast<int>(gates_.size()); }
  int net_count() const { return gate_count() + sources_.back().sources_end; }

  // ---- provenance tags (dpmerge::obs) ----
  // Side metadata only: the DFG node whose synthesis created each gate.
  // Never influences structure, simulation, timing or export.

  /// Sets the owner DFG node id stamped on subsequently created gates
  /// (-1 = untagged). The synthesizer scopes this around each node's turn.
  void set_provenance_owner(int dfg_node) { current_owner_ = dfg_node; }

  /// Gates [first_gate, next run's first_gate) share `owner`. Consecutive
  /// runs differ in owner.
  struct OwnerRun {
    int first_gate;
    int owner;
  };
  std::span<const OwnerRun> owner_runs() const { return owners_; }

  /// Owner DFG node of a gate, or -1 (untagged).
  int provenance_owner(GateId g) const;

  /// True when at least one gate carries an owner tag.
  bool has_provenance() const {
    return std::any_of(owners_.begin(), owners_.end(),
                       [](const OwnerRun& r) { return r.owner >= 0; });
  }

  /// The net gate `g` drives.
  NetId output(GateId g) const;
  /// Driver gate of net `n` (its id, its gate), or invalid / nullptr for
  /// sources (constants, primary inputs, other `new_net()` nets). `n` must
  /// be a net of this netlist.
  GateId driver_id(NetId n) const {
    // The first run whose sources do not all lie below n: n is one of its
    // sources, or a gate output created before it.
    const auto it = std::partition_point(
        sources_.begin(), sources_.end(), [&](const SourceRun& r) {
          return r.gates_before + r.sources_end <= n.value;
        });
    const int below = it == sources_.begin() ? 0 : std::prev(it)->sources_end;
    if (it != sources_.end() && n.value >= it->gates_before + below) {
      return GateId{};
    }
    return GateId{n.value - below};
  }
  const Gate* driver(NetId n) const {
    const GateId g = driver_id(n);
    return g.valid() ? &gates_[static_cast<std::size_t>(g.value)] : nullptr;
  }

  /// True while gate-index order is topological (see the class comment).
  bool index_topological() const { return index_topological_; }

  /// Gates in topological order (inputs first): index order while
  /// `index_topological()`, else a `kahn_order` sort made by this call.
  GateOrder topo_gates() const {
    if (index_topological_) return GateOrder(gate_count());
    return GateOrder(kahn_order(*this));
  }

 private:
  friend class OutputCursor;

  /// Sources created after the first `gates_before` gates, with no gate
  /// between them; `sources_end` counts the sources up to and including
  /// this run. Both fields increase from run to run.
  struct SourceRun {
    int gates_before;
    int sources_end;
  };

  // The gate array grows by realloc, not by vector regrowth (DESIGN.md §5b).
  // The run lists grow once per source run / owner switch: a few thousand
  // entries even on million-gate netlists.
  support::PodBuffer<Gate> gates_;
  std::vector<SourceRun> sources_{{0, 2}};  // nets 0/1: the constants
  std::vector<Bus> inputs_;
  std::vector<Bus> outputs_;
  bool index_topological_ = true;
  std::vector<OwnerRun> owners_;
  int current_owner_ = -1;
};

/// Output nets of the gates a walk visits: O(1) per gate while successive
/// gates lie between the same two source runs (it starts at the last run),
/// so an index-order walk crosses each run once; a binary search on any
/// other jump. Valid until the next `new_net`.
class OutputCursor {
 public:
  explicit OutputCursor(const Netlist& n)
      : runs_(n.sources_),
        lo_(runs_.back().gates_before),
        shift_(runs_.back().sources_end) {}

  NetId operator()(GateId g) {
    if (g.value < lo_ || g.value >= hi_) seek(g.value);
    return NetId{g.value + shift_};
  }

 private:
  void seek(int g);

  std::span<const Netlist::SourceRun> runs_;
  int lo_;  ///< gates [lo_, hi_) are preceded by `shift_` sources
  int hi_ = std::numeric_limits<int>::max();
  int shift_;
};

inline NetId Netlist::output(GateId g) const {
  return OutputCursor(*this)(g);
}

/// Evaluates the gates in `order`, a topological order, over `value` (one
/// entry per net, the sources already set) with `apply_cell` over `ops`:
/// the one gate walk of the packed simulator, the dead-logic lint and the
/// BDD checker.
template <typename Order, typename V, typename Ops>
void eval_gates(const Netlist& n, const Order& order, std::vector<V>& value,
                const Ops& ops) {
  const std::span<const Gate> gates = n.gates();
  OutputCursor outs(n);
  V ins[kMaxCellInputs]{};
  for (GateId gid : order) {
    const Gate& g = gates[static_cast<std::size_t>(gid.value)];
    std::size_t k = 0;
    for (NetId in : g.inputs()) {
      ins[k++] = value[static_cast<std::size_t>(in.value)];
    }
    value[static_cast<std::size_t>(outs(gid).value)] =
        apply_cell(g.type, ins, ops);
  }
}

}  // namespace dpmerge::netlist
