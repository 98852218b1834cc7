#pragma once

#include <map>
#include <string>
#include <vector>

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist {

/// Cycle-free functional simulation of a netlist: evaluates every gate once
/// in topological order. This is the scalar reference oracle; bulk
/// simulation (verification sweeps) goes through `PackedSimulator`, which
/// evaluates 64 stimulus vectors per pass.
class Simulator {
 public:
  explicit Simulator(const Netlist& n);

  /// Positional form: `inputs[i]` supplies the value of the i-th bus in
  /// `Netlist::inputs()` order (width must match). Repeated callers should
  /// prefer this overload — it involves no string-keyed lookups.
  std::vector<BitVector> run(const std::vector<BitVector>& inputs) const;

  /// Name-keyed convenience form: `by_name[input bus name]` supplies each
  /// input bus value. Resolves names to positions, then defers to the
  /// positional overload. Returns each output bus value keyed by name.
  std::map<std::string, BitVector> run(
      const std::map<std::string, BitVector>& by_name) const;

 private:
  const Netlist& net_;
};

}  // namespace dpmerge::netlist
