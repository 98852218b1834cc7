#pragma once

#include <cstdint>
#include <vector>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist {

/// `apply_cell`'s connectives over 64 stimulus lanes: bit L of every word
/// belongs to lane L.
struct PackedOps {
  static std::uint64_t not_(std::uint64_t a) { return ~a; }
  static std::uint64_t and_(std::uint64_t a, std::uint64_t b) { return a & b; }
  static std::uint64_t or_(std::uint64_t a, std::uint64_t b) { return a | b; }
  static std::uint64_t xor_(std::uint64_t a, std::uint64_t b) { return a ^ b; }
  static std::uint64_t xnor_(std::uint64_t a, std::uint64_t b) {
    return ~(a ^ b);
  }
  static std::uint64_t mux(std::uint64_t d0, std::uint64_t d1,
                           std::uint64_t sel) {
    return (d0 & ~sel) | (d1 & sel);
  }
};

/// 64-way word-parallel netlist simulation: every net carries a `uint64_t`
/// whose bit L is the net's Boolean value in lane L, so one topological
/// sweep evaluates 64 independent stimulus vectors. This is the classic
/// word-parallel (a.k.a. "bit-parallel" or "compiled 2-value") logic
/// simulation technique; it makes Monte-Carlo equivalence checking
/// (`synth::verify_netlist`) roughly a lane-count faster than one scalar
/// pass per stimulus (the scalar oracle lives in tests/sim_oracle.h).
class PackedSimulator {
 public:
  static constexpr int kLanes = 64;

  /// Takes the netlist's topological order once (`Netlist::topo_gates()`);
  /// every `run` walks it. The netlist must not change structurally while
  /// the simulator is in use.
  explicit PackedSimulator(const Netlist& n);

  /// One word per bit of each bus, buses in `Netlist::inputs()` /
  /// `outputs()` order, bits LSB-first — `PackedBus[b]` holds the 64 lanes
  /// of bit b.
  using PackedBus = std::vector<std::uint64_t>;

  /// Raw packed run. `inputs[i]` must have exactly as many words as input
  /// bus i has bits. Returns one `PackedBus` per output bus. Lanes are
  /// fully independent; unused lanes simply compute garbage vectors.
  std::vector<PackedBus> run(const std::vector<PackedBus>& inputs) const;

  /// Convenience wrapper over `run` for BitVector stimuli:
  /// `stimuli[L][i]` is the value of input bus i in lane L (at most
  /// `kLanes` lanes). Returns `results[L][j]` = value of output bus j in
  /// lane L.
  std::vector<std::vector<BitVector>> run_batch(
      const std::vector<std::vector<BitVector>>& stimuli) const;

  const Netlist& netlist() const { return net_; }

 private:
  const Netlist& net_;
  GateOrder order_;
};

}  // namespace dpmerge::netlist
