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

#include "dpmerge/check/absint.h"
#include "dpmerge/check/diagnostic.h"
#include "dpmerge/netlist/netlist.h"

namespace dpmerge::check {

/// The lint's per-net domain (`Tri`, absint.h) and its
/// `netlist::apply_cell` connectives.
namespace tristate {

/// A known input decides an AND/OR by itself, and a MUX with an unknown
/// select still yields a known output when both data legs agree.
struct Ops {
  static Tri not_(Tri a) { return tri_not(a); }
  static Tri and_(Tri a, Tri b) {
    if (a == Tri::F || b == Tri::F) return Tri::F;
    return a == Tri::T && b == Tri::T ? Tri::T : Tri::U;
  }
  static Tri or_(Tri a, Tri b) {
    if (a == Tri::T || b == Tri::T) return Tri::T;
    return a == Tri::F && b == Tri::F ? Tri::F : Tri::U;
  }
  static Tri xor_(Tri a, Tri b) {
    if (a == Tri::U || b == Tri::U) return Tri::U;
    return a == b ? Tri::F : Tri::T;
  }
  static Tri xnor_(Tri a, Tri b) { return not_(xor_(a, b)); }
  static Tri mux(Tri d0, Tri d1, Tri sel) {
    if (sel != Tri::U) return sel == Tri::T ? d1 : d0;
    return d0 != Tri::U && d0 == d1 ? d0 : Tri::U;
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
