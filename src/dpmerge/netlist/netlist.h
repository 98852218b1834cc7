#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
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

/// One cell instance. Its id is its index in the gate array and its pin
/// count is `cell_input_count(type)`; neither is stored.
struct Gate {
  CellType type = CellType::INV;
  std::uint8_t drive = 0;  ///< drive-strength variant index (0 = X1)
  std::array<NetId, kMaxCellInputs> pins{};  ///< unused slots: NetId{}
  NetId output;

  std::span<const NetId> inputs() const {
    return {pins.data(), static_cast<std::size_t>(cell_input_count(type))};
  }
};
static_assert(sizeof(Gate) <= 20, "gates are stored flat; keep them small");
static_assert(std::is_trivially_copyable_v<Gate>,
              "the gate array grows by realloc (support::PodBuffer)");

/// Cached structural view of a Netlist, built by `Netlist::view()` and kept
/// until the next structural mutation (new net, new gate, rewired pin,
/// `mutable_gates`). Drive changes do not invalidate it. Mirrors `dfg::Csr`:
/// build once, then share read-only. While `Netlist::index_topological()`
/// holds, gate-index order is the topological order and the view holds only
/// the reader CSR (`topo` and `topo_pos` stay empty).
struct NetlistView {
  /// Kahn-LIFO topological order (inputs first), built only while the
  /// index-order bit is clear. A combinational cycle leaves its gates out,
  /// so `topo.size() < gate_count()` flags one.
  std::vector<GateId> topo;
  /// Gate index -> position in `topo` (-1 for gates left out by a cycle);
  /// empty while `topo` is.
  std::vector<std::int32_t> topo_pos;
  /// Reader CSR over every net (constants and primary inputs included):
  /// the gates reading net n are readers[reader_begin[n]..reader_begin[n+1]),
  /// one entry per reading pin, in gate order.
  std::vector<std::int32_t> reader_begin;
  std::vector<std::int32_t> readers;

  std::span<const std::int32_t> readers_of(NetId n) const {
    const auto i = static_cast<std::size_t>(n.value);
    return {readers.data() + reader_begin[i],
            readers.data() + reader_begin[i + 1]};
  }
};

/// Gates in topological order (inputs first), as returned by
/// `Netlist::topo_gates()`: gate-index order `0..n` while the netlist's
/// index-order bit holds (nothing is built or stored), otherwise the view's
/// Kahn-LIFO order. A range of `GateId`s; valid until the next structural
/// mutation.
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
    return order_ ? order_[i] : GateId{static_cast<int>(i)};
  }
  iterator begin() const { return {order_, 0}; }
  iterator end() const { return {order_, size_}; }

 private:
  friend class Netlist;
  GateOrder(const GateId* order, int size) : order_(order), size_(size) {}
  const GateId* order_;  ///< null: index order
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
/// Index order: `add_gate` appends a gate whose output is a fresh net no
/// gate reads yet, so a netlist built by it alone lists every gate after the
/// drivers of its inputs. `index_topological()` records that. Two mutators
/// can break it, and clear it for good: `set_input` to a net whose driver
/// is not earlier than the gate, and `mutable_gates()`.
///
/// Thread-safety: const accessors are safe to call concurrently EXCEPT
/// `view()` (and, while the index-order bit is clear, `kahn_order` and
/// `check::verify`, which read the view) while the view is stale: the first
/// call after a structural mutation builds the cache. `topo_gates()` builds
/// nothing while the bit is set, so it is safe to call concurrently then;
/// with the bit clear it reads the view. Code that shares a netlist across
/// threads builds the view once up front when it needs it.
class Netlist {
 public:
  Netlist();

  NetId new_net();
  NetId const0() const { return NetId{0}; }
  NetId const1() const { return NetId{1}; }
  bool is_const(NetId n) const { return n.value <= 1; }

  /// Raw gate creation (no folding): appends a gate driving a fresh net.
  /// It, `set_drive` and `set_input` throw `std::invalid_argument` (in every
  /// build type) on a pin count, drive or pin the cell does not have.
  NetId add_gate(CellType t, PinList inputs);

  /// Sets a gate's drive-strength variant. Not structural: the view stays.
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
  void add_input(const std::string& name, const Signal& s);
  void add_output(const std::string& name, const Signal& s);
  const std::vector<Bus>& inputs() const { return inputs_; }
  const std::vector<Bus>& outputs() const { return outputs_; }

  /// The gates, by index. Valid until the next `add_gate`.
  std::span<const Gate> gates() const { return gates_.span(); }
  /// Unchecked write access for the verifier tests' corruption cases; real
  /// transforms use `set_drive` / `set_input`. Counts as a structural
  /// mutation at the call, and clears the index-order bit: a span obtained
  /// here must not be used to change structure after the next view build
  /// (the view would go stale).
  std::span<Gate> mutable_gates() {
    ++version_;
    index_topological_ = false;
    return gates_.span();
  }
  int gate_count() const { return static_cast<int>(gates_.size()); }
  int net_count() const { return net_count_; }

  // ---- provenance tags (dpmerge::obs) ----
  // Side metadata only: the DFG node whose synthesis created each gate.
  // Never influences structure, simulation, timing or export.

  /// Sets the owner DFG node id stamped on subsequently created gates
  /// (-1 = untagged). The synthesizer scopes this around each node's turn.
  void set_provenance_owner(int dfg_node) { current_owner_ = dfg_node; }

  /// Owner DFG node of a gate, or -1 (untagged).
  int provenance_owner(GateId g) const {
    const auto i = static_cast<std::size_t>(g.value);
    return i < gate_owner_.size() ? gate_owner_[i] : -1;
  }

  /// True when at least one gate carries an owner tag.
  bool has_provenance() const {
    for (int o : gate_owner_) {
      if (o >= 0) return true;
    }
    return false;
  }

  /// Driver gate of a net (its id, its gate), or invalid / nullptr for
  /// primary inputs and constants.
  GateId driver_id(NetId n) const {
    return GateId{driver_of_[static_cast<std::size_t>(n.value)]};
  }
  const Gate* driver(NetId n) const {
    const GateId g = driver_id(n);
    return g.valid() ? &gates_[static_cast<std::size_t>(g.value)] : nullptr;
  }

  /// True while gate-index order is topological (see the class comment).
  bool index_topological() const { return index_topological_; }

  /// Cached structural view (see `NetlistView`); rebuilt lazily on the
  /// first call after a structural mutation.
  const NetlistView& view() const;
  /// Gates in topological order (inputs first): index order while
  /// `index_topological()`, else `view().topo`.
  GateOrder topo_gates() const {
    if (index_topological_) return {nullptr, gate_count()};
    const NetlistView& v = view();
    return {v.topo.data(), static_cast<int>(v.topo.size())};
  }

 private:
  friend std::vector<GateId> kahn_order(const Netlist& n);

  // Per-gate and per-net arrays grow by realloc, not by vector regrowth
  // (DESIGN.md §5b).
  int net_count_ = 0;
  support::PodBuffer<Gate> gates_;
  support::PodBuffer<int> driver_of_;  // net -> gate index, -1 if none
  std::vector<Bus> inputs_;
  std::vector<Bus> outputs_;
  std::uint64_t version_ = 0;  ///< Structural mutation counter (view key).
  bool index_topological_ = true;
  mutable NetlistView view_;
  mutable std::uint64_t view_version_ = ~std::uint64_t{0};
  support::PodBuffer<int> gate_owner_;  // parallel to gates_; -1 = untagged
  int current_owner_ = -1;
};

/// The Kahn-LIFO topological order (inputs first; gates on or downstream
/// of a cycle left out), from the same code as `NetlistView::topo`, whatever
/// the index-order bit. For artifacts whose text follows that order (the
/// gate numbering of `simplify`, the finding order of
/// `check::lint_netlist_deadlogic`); everything else iterates `topo_gates()`.
std::vector<GateId> kahn_order(const Netlist& n);

}  // namespace dpmerge::netlist
