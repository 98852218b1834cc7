#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpmerge/netlist/cell.h"
#include "dpmerge/support/bitvector.h"
#include "dpmerge/support/inline_list.h"
#include "dpmerge/support/sign.h"

namespace dpmerge::netlist {

struct NetId {
  int value = -1;
  bool valid() const { return value >= 0; }
  auto operator<=>(const NetId&) const = default;
};

struct GateId {
  int value = -1;
  auto operator<=>(const GateId&) const = default;
};

/// A gate's input pins, stored inline: no heap block per gate. The
/// capacity is the widest cell's arity (MUX2); appending past it throws
/// `std::length_error` in every build type.
using PinList = support::InlineList<NetId, 3>;

struct Gate {
  GateId id;
  CellType type = CellType::INV;
  int drive = 0;  ///< drive-strength variant index (0 = X1)
  PinList inputs;
  NetId output;
};
static_assert(sizeof(Gate) <= 32, "gates are stored flat; keep them small");

/// Cached structural view of a Netlist, built by `Netlist::view()` and kept
/// until the next structural mutation (new net, new gate, rewired pin,
/// `mutable_gates`). Drive changes do not invalidate it. Mirrors `dfg::Csr`: build once, then
/// share read-only.
struct NetlistView {
  /// Kahn-LIFO topological order (inputs first). A combinational cycle
  /// leaves its gates out, so `topo.size() < gate_count()` flags one.
  std::vector<GateId> topo;
  /// Gate index -> position in `topo` (-1 for gates left out by a cycle).
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
/// Thread-safety: const accessors are safe to call concurrently EXCEPT
/// `view()` / `topo_gates()` (and `check::verify`, which reads the view)
/// while the view is stale: the first call after a structural mutation
/// builds the cache. Code that shares a netlist across threads builds the
/// view once up front.
class Netlist {
 public:
  Netlist();

  NetId new_net();
  NetId const0() const { return NetId{0}; }
  NetId const1() const { return NetId{1}; }
  bool is_const(NetId n) const { return n.value <= 1; }

  /// Raw gate creation (no folding).
  NetId add_gate(CellType t, PinList inputs);
  /// Re-drives an existing net with a gate (used by buffering transforms).
  GateId add_gate_driving(CellType t, PinList inputs, NetId out);

  /// Sets a gate's drive-strength variant. Not structural: the view stays.
  void set_drive(GateId g, int drive) {
    gates_[static_cast<std::size_t>(g.value)].drive = drive;
  }
  /// Rewires input pin `pin` of gate `g` to net `n`. Structural.
  void set_input(GateId g, int pin, NetId n) {
    gates_[static_cast<std::size_t>(g.value)]
        .inputs[static_cast<std::size_t>(pin)] = n;
    ++version_;
  }

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

  const std::vector<Gate>& gates() const { return gates_; }
  /// Unchecked write access for the verifier tests' corruption cases; real
  /// transforms use `set_drive` / `set_input`. Counts as a structural
  /// mutation at the call: a reference obtained here must not be used to
  /// change structure after the next view build (the view would go stale).
  std::vector<Gate>& mutable_gates() {
    ++version_;
    return gates_;
  }
  int gate_count() const { return static_cast<int>(gates_.size()); }
  int net_count() const { return net_count_; }

  // ---- provenance tags (dpmerge::obs) ----
  // Side metadata only: the DFG node whose synthesis created each gate.
  // Never influences structure, simulation, timing or export, and compiles
  // out entirely with -DDPMERGE_OBS=OFF (owner() is then always -1), so
  // netlists are byte-identical with or without provenance.

  /// Sets the owner DFG node id stamped on subsequently created gates
  /// (-1 = untagged). The synthesizer scopes this around each node's turn.
  void set_provenance_owner(int dfg_node) {
#ifndef DPMERGE_OBS_DISABLED
    current_owner_ = dfg_node;
#else
    (void)dfg_node;
#endif
  }

  /// Owner DFG node of a gate, or -1 (untagged / compiled out).
  int provenance_owner(GateId g) const {
#ifndef DPMERGE_OBS_DISABLED
    const auto i = static_cast<std::size_t>(g.value);
    return i < gate_owner_.size() ? gate_owner_[i] : -1;
#else
    (void)g;
    return -1;
#endif
  }

  /// True when at least one gate carries an owner tag.
  bool has_provenance() const {
#ifndef DPMERGE_OBS_DISABLED
    for (int o : gate_owner_) {
      if (o >= 0) return true;
    }
#endif
    return false;
  }

  /// Driver gate of a net, or nullptr for primary inputs / constants.
  const Gate* driver(NetId n) const;

  /// Cached structural view (see `NetlistView`); rebuilt lazily on the
  /// first call after a structural mutation.
  const NetlistView& view() const;
  /// Gates in topological order (inputs first): `view().topo`.
  const std::vector<GateId>& topo_gates() const { return view().topo; }

 private:
  int net_count_ = 0;
  std::vector<Gate> gates_;
  std::vector<int> driver_of_;  // net -> gate index, -1 if none
  std::vector<Bus> inputs_;
  std::vector<Bus> outputs_;
  std::uint64_t version_ = 0;  ///< Structural mutation counter (view key).
  mutable NetlistView view_;
  mutable std::uint64_t view_version_ = ~std::uint64_t{0};
#ifndef DPMERGE_OBS_DISABLED
  std::vector<int> gate_owner_;  // parallel to gates_; -1 = untagged
  int current_owner_ = -1;
#endif
};

}  // namespace dpmerge::netlist
