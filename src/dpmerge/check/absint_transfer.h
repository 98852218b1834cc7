#pragma once

/// Abstract transfer functions of the known-bits and interval domains
/// (DESIGN.md §9, §13). This is an *internal* header of dpmerge::check: the
/// fixpoint engine (absint_engine.cpp) applies them node by node, and the
/// claim predicates (absint.cpp) share the tri-state and u128 helpers.
///
/// Everything is inline and allocation-light; the per-bit loops run over
/// widths, not value ranges.

#include <algorithm>

#include "dpmerge/check/absint.h"
#include "dpmerge/support/bitvector.h"
#include "dpmerge/support/sign.h"

namespace dpmerge::check::absdom {

using u128 = unsigned __int128;

/// Widest value the interval domain represents. Above this everything is
/// top; 120 leaves headroom for pow2(w) in the claim-disjointness algebra.
constexpr int kIntervalMaxWidth = 120;

inline u128 pow2(int k) { return static_cast<u128>(1) << k; }

inline bool fits_u128(int w) { return w <= kIntervalMaxWidth; }

inline u128 to_u128(const BitVector& v) {
  u128 r = 0;
  for (int i = v.width() - 1; i >= 0; --i) {
    r = (r << 1) | static_cast<u128>(v.bit(i) ? 1 : 0);
  }
  return r;
}

// -------------------------------------------------------- tri-state bits --

/// Tri-state bit: the value of one bit across all stimuli.
enum class Tri : unsigned char { F, T, U };

inline Tri tri_of(const KnownBits& kb, int i) {
  if (!kb.known.bit(i)) return Tri::U;
  return kb.value.bit(i) ? Tri::T : Tri::F;
}

inline Tri tri_not(Tri a) {
  if (a == Tri::U) return Tri::U;
  return a == Tri::T ? Tri::F : Tri::T;
}

inline Tri tri_xor3(Tri a, Tri b, Tri c) {
  if (a == Tri::U || b == Tri::U || c == Tri::U) return Tri::U;
  const int ones = (a == Tri::T) + (b == Tri::T) + (c == Tri::T);
  return (ones % 2) ? Tri::T : Tri::F;
}

/// Majority of three tri-state bits: decided as soon as two agree.
inline Tri tri_maj3(Tri a, Tri b, Tri c) {
  const int t = (a == Tri::T) + (b == Tri::T) + (c == Tri::T);
  const int f = (a == Tri::F) + (b == Tri::F) + (c == Tri::F);
  if (t >= 2) return Tri::T;
  if (f >= 2) return Tri::F;
  return Tri::U;
}

inline void set_tri(KnownBits& kb, int i, Tri v) {
  if (v == Tri::U) return;  // top(w) starts all-unknown
  kb.known.set_bit(i, true);
  kb.value.set_bit(i, v == Tri::T);
}

// ---------------------------------------------------- interval transfers --

inline Interval interval_top() { return Interval{}; }

inline Interval interval_full(int w) {
  if (!fits_u128(w)) return interval_top();
  return Interval{true, 0, pow2(w) - 1};
}

inline Interval interval_const(u128 v) { return Interval{true, v, v}; }

inline Interval itv_add(const Interval& a, const Interval& b, int w) {
  if (!a.valid || !b.valid || !fits_u128(w)) return interval_top();
  const u128 hi = a.hi + b.hi;  // both < 2^120, no u128 overflow
  if (hi >= pow2(w)) return interval_full(w);
  return Interval{true, a.lo + b.lo, hi};
}

inline Interval itv_sub(const Interval& a, const Interval& b, int w) {
  if (!a.valid || !b.valid || !fits_u128(w)) return interval_top();
  if (a.lo < b.hi) return interval_full(w);  // could wrap below zero
  return Interval{true, a.lo - b.hi, a.hi - b.lo};
}

inline Interval itv_mul(const Interval& a, const Interval& b, int w) {
  if (!a.valid || !b.valid || !fits_u128(w)) return interval_top();
  if (a.hi >= pow2(60) || b.hi >= pow2(60)) return interval_top();
  const u128 hi = a.hi * b.hi;  // < 2^120
  if (hi >= pow2(w)) return interval_full(w);
  return Interval{true, a.lo * b.lo, hi};
}

inline Interval itv_neg(const Interval& a, int w) {
  if (!a.valid || !fits_u128(w)) return interval_top();
  if (a.lo == 0 && a.hi == 0) return interval_const(0);
  if (a.lo == 0) return interval_full(w);  // {0} u [2^w-hi, 2^w-1] splits
  return Interval{true, pow2(w) - a.hi, pow2(w) - a.lo};
}

inline Interval itv_shl(const Interval& a, int s, int w) {
  if (!a.valid || !fits_u128(w) || s < 0) return interval_top();
  if (s >= w) return interval_const(0);
  if (a.hi >= pow2(kIntervalMaxWidth - s)) return interval_top();
  const u128 hi = a.hi << s;
  if (hi >= pow2(w)) return interval_full(w);
  return Interval{true, a.lo << s, hi};
}

inline Interval itv_resize(const Interval& a, int from_w, int to_w,
                           Sign sign) {
  if (!a.valid || !fits_u128(to_w) || !fits_u128(from_w)) {
    return interval_top();
  }
  if (to_w <= from_w) {
    if (to_w == from_w) return a;
    if (a.hi < pow2(to_w)) return a;  // truncation drops nothing
    return interval_full(to_w);
  }
  if (sign == Sign::Unsigned || from_w == 0) return a;
  const u128 half = pow2(from_w - 1);
  if (a.hi < half) return a;  // sign bit 0 throughout: zero-extension
  if (a.lo >= half) {         // sign bit 1 throughout: fixed offset
    const u128 offset = pow2(to_w) - pow2(from_w);
    return Interval{true, a.lo + offset, a.hi + offset};
  }
  return interval_full(to_w);
}

// -------------------------------------------------- known-bits transfers --

inline KnownBits kb_resize(const KnownBits& a, int to_w, Sign sign) {
  const int w = a.width();
  KnownBits r = KnownBits::top(to_w);
  const Tri fill =
      (sign == Sign::Signed && w > 0) ? tri_of(a, w - 1) : Tri::F;
  for (int i = 0; i < to_w; ++i) {
    set_tri(r, i, i < w ? tri_of(a, i) : fill);
  }
  return r;
}

/// Ripple addition of a + b + carry_in over tri-state bits.
inline KnownBits kb_add(const KnownBits& a, const KnownBits& b, Tri carry,
                        bool invert_b) {
  const int w = a.width();
  KnownBits r = KnownBits::top(w);
  for (int i = 0; i < w; ++i) {
    const Tri ai = tri_of(a, i);
    const Tri bi = invert_b ? tri_not(tri_of(b, i)) : tri_of(b, i);
    set_tri(r, i, tri_xor3(ai, bi, carry));
    carry = tri_maj3(ai, bi, carry);
  }
  return r;
}

inline KnownBits kb_mul(const KnownBits& a, const KnownBits& b) {
  const int w = a.width();
  if (a.all_known() && b.all_known()) {
    return KnownBits::constant(a.value.mul(b.value));
  }
  KnownBits r = KnownBits::top(w);
  const int tz =
      std::min(w, a.known_trailing_zeros() + b.known_trailing_zeros());
  for (int i = 0; i < tz; ++i) set_tri(r, i, Tri::F);
  return r;
}

inline KnownBits kb_shl(const KnownBits& a, int s) {
  const int w = a.width();
  KnownBits r = KnownBits::top(w);
  for (int i = 0; i < w; ++i) {
    set_tri(r, i, i < s ? Tri::F : tri_of(a, i - s));
  }
  return r;
}

/// A 1-bit truth value zero-padded to `w` bits (comparator results).
inline KnownBits kb_bool(int w, Tri bit0) {
  KnownBits r = KnownBits::top(w);
  set_tri(r, 0, bit0);
  for (int i = 1; i < w; ++i) set_tri(r, i, Tri::F);
  return r;
}

// ------------------------------------------------- comparator decisions --

inline Tri decide_ltu(const AbstractValue& a, const AbstractValue& b) {
  if (a.range.valid && b.range.valid) {
    if (a.range.hi < b.range.lo) return Tri::T;
    if (a.range.lo >= b.range.hi) return Tri::F;
  }
  return Tri::U;
}

inline Tri decide_lts(const AbstractValue& a, const AbstractValue& b) {
  if (a.bits.all_known() && b.bits.all_known()) {
    return a.bits.value.signed_lt(b.bits.value) ? Tri::T : Tri::F;
  }
  return Tri::U;
}

inline Tri decide_eq(const AbstractValue& a, const AbstractValue& b) {
  const int w = a.width();
  bool all_known_equal = true;
  for (int i = 0; i < w; ++i) {
    const Tri ai = tri_of(a.bits, i);
    const Tri bi = tri_of(b.bits, i);
    if (ai == Tri::U || bi == Tri::U) {
      all_known_equal = false;
    } else if (ai != bi) {
      return Tri::F;  // a bit differs on every stimulus
    }
  }
  if (all_known_equal) return Tri::T;
  if (a.range.valid && b.range.valid &&
      (a.range.hi < b.range.lo || b.range.hi < a.range.lo)) {
    return Tri::F;
  }
  return Tri::U;
}

}  // namespace dpmerge::check::absdom
