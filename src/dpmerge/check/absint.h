#pragma once

/// Value domains of the abstract interpreter (DESIGN.md §9, §13) and the
/// claim-refutation predicate the analysis-soundness lint is built on.
///
/// Both domains *over*-approximate the reachable value set of one signal
/// (a node output, edge carrier or delivered operand):
///
///   - **Known bits**: per bit, whether the bit has the same value on every
///     input stimulus (and which value).
///   - **Intervals**: an unsigned range [lo, hi] containing every reachable
///     bit pattern, tracked while widths stay representable (<= 120 bits);
///     anything else is top.
///
/// The transfer functions over these domains live in absint_transfer.h; the
/// engine that propagates them (plus congruences and demanded bits) to a
/// fixpoint, and the lint that consumes it, live in absint_engine.h.

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/support/bitvector.h"

namespace dpmerge::check {

/// Tri-state bit: the value of one bit across all stimuli — known 0, known
/// 1, or unknown (varies with the stimulus).
enum class Tri : unsigned char { F, T, U };

inline Tri tri_not(Tri a) {
  if (a == Tri::U) return Tri::U;
  return a == Tri::T ? Tri::F : Tri::T;
}

/// Known-bits abstract value: bit i is known iff `known.bit(i)`, in which
/// case its value on every stimulus is `value.bit(i)` (unknown positions of
/// `value` are kept zero).
struct KnownBits {
  BitVector known;
  BitVector value;

  int width() const { return known.width(); }
  static KnownBits top(int w) { return {BitVector(w), BitVector(w)}; }
  static KnownBits constant(const BitVector& v);
  bool all_known() const;
  /// Number of low-order bits known to be zero.
  int known_trailing_zeros() const;
};

/// Unsigned value interval [lo, hi]; `valid == false` is top (no
/// information — width too large or an operation could wrap).
struct Interval {
  bool valid = false;
  unsigned __int128 lo = 0;
  unsigned __int128 hi = 0;
};

/// The known-bits × interval pair the comparator decisions and the claim
/// check read (the engine's `AbsFact::value()` projection).
struct AbstractValue {
  KnownBits bits;
  Interval range;

  int width() const { return bits.width(); }
};

/// True iff the concrete value `v` is a member of the abstraction — the
/// soundness predicate the property tests drive.
bool contains(const AbstractValue& av, const BitVector& v);

/// True iff no value of width `av.width()` can satisfy the information-
/// content claim `c` while lying inside `av` — i.e. the claim is provably
/// violated on every reachable value. The reachable set is non-empty and
/// contained in both `av` and the claim's concretisation, so disjointness
/// is a definite soundness bug in the claim (or a stale result).
bool contradicts(const AbstractValue& av, analysis::InfoContent c);

}  // namespace dpmerge::check
