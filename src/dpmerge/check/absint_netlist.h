#pragma once

/// Gate-level dead-logic lint (DESIGN.md §13): runs the tri-state known-bits
/// domain forward over the netlist's gates and an observability sweep
/// backward from the output buses, and flags cells synthesis left behind:
///
///   net.absint.constant-cell      the gate's output is the same value on
///                                 every stimulus (its cone folds to a tie)
///   net.absint.unobservable-cell  no path of non-constant influence from
///                                 the gate's output to any output bus bit
///
/// Both are warnings — the netlist is functionally correct either way; the
/// findings measure synthesis slack (a MUX with a constant select, masked
/// partial products, padding of comparator results) rather than bugs.

#include "dpmerge/check/diagnostic.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::check {

/// The lint's per-net domain and its `netlist::apply_cell` connectives.
namespace tristate {

/// Per-net values: known 0, known 1, or varies with the stimulus.
inline constexpr unsigned char kF = 0, kT = 1, kU = 2;

/// A known input decides an AND/OR by itself, and a MUX with an unknown
/// select still yields a known output when both data legs agree.
struct Ops {
  static unsigned char not_(unsigned char a) { return a == kU ? kU : a ^ 1; }
  static unsigned char and_(unsigned char a, unsigned char b) {
    if (a == kF || b == kF) return kF;
    return a == kT && b == kT ? kT : kU;
  }
  static unsigned char or_(unsigned char a, unsigned char b) {
    if (a == kT || b == kT) return kT;
    return a == kF && b == kF ? kF : kU;
  }
  static unsigned char xor_(unsigned char a, unsigned char b) {
    return a == kU || b == kU ? kU : a ^ b;
  }
  static unsigned char xnor_(unsigned char a, unsigned char b) {
    return not_(xor_(a, b));
  }
  static unsigned char mux(unsigned char d0, unsigned char d1,
                           unsigned char sel) {
    if (sel != kU) return sel == kT ? d1 : d0;
    return d0 != kU && d0 == d1 ? d0 : kU;
  }
};

}  // namespace tristate

/// Summary counters alongside the per-gate findings (the CLI prints these
/// even when the report is capped).
struct NetlistAbsintStats {
  int constant_cells = 0;
  int unobservable_cells = 0;
  int gates = 0;
};

/// Runs both sweeps. At most `max_findings` diagnostics are emitted (the
/// stats count everything); pass a negative cap for no limit.
CheckReport lint_netlist_deadlogic(const netlist::Netlist& nl,
                                   NetlistAbsintStats* stats = nullptr,
                                   int max_findings = 50);

}  // namespace dpmerge::check
