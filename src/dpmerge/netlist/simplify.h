#pragma once

#include "dpmerge/netlist/netlist.h"

namespace dpmerge::netlist {

struct SimplifyStats {
  int gates_before = 0;
  int gates_after = 0;
};

/// Light combinational clean-up: rebuilds the netlist through the
/// constant-folding construction helpers (sweeping constants and
/// identities), structurally hashes gates (common-subexpression
/// elimination, commutative inputs normalised), collapses double
/// inverters, and drops logic no output can observe. Functionality is
/// preserved exactly; gate count never increases.
Netlist simplify(const Netlist& n, SimplifyStats* stats = nullptr);

}  // namespace dpmerge::netlist
