#include "dpmerge/check/absint.h"

#include "dpmerge/check/absint_transfer.h"

namespace dpmerge::check {

using analysis::InfoContent;
using namespace absdom;  // NOLINT(google-build-using-namespace)

// ------------------------------------------------------------- KnownBits --

KnownBits KnownBits::constant(const BitVector& v) {
  BitVector known(v.width());
  for (int i = 0; i < v.width(); ++i) known.set_bit(i, true);
  return {known, v};
}

bool KnownBits::all_known() const {
  for (int i = 0; i < width(); ++i) {
    if (!known.bit(i)) return false;
  }
  return true;
}

int KnownBits::known_trailing_zeros() const {
  int n = 0;
  while (n < width() && known.bit(n) && !value.bit(n)) ++n;
  return n;
}

// ------------------------------------------------------------ predicates --

bool contains(const AbstractValue& av, const BitVector& v) {
  if (v.width() != av.width()) return false;
  for (int i = 0; i < v.width(); ++i) {
    if (av.bits.known.bit(i) && av.bits.value.bit(i) != v.bit(i)) {
      return false;
    }
  }
  if (av.range.valid && fits_u128(v.width())) {
    const u128 x = to_u128(v);
    if (x < av.range.lo || x > av.range.hi) return false;
  }
  return true;
}

bool contradicts(const AbstractValue& av, InfoContent c) {
  const int w = av.width();
  if (c.width >= w) return false;  // claims at full width are vacuous
  const KnownBits& kb = av.bits;
  const Interval& itv = av.range;
  if (c.sign == Sign::Unsigned || c.width == 0) {
    // The claim pins bits [c.width, w) to zero (a signed claim of width 0
    // also concretises to exactly {0}).
    for (int j = c.width; j < w; ++j) {
      if (kb.known.bit(j) && kb.value.bit(j)) return true;
    }
    if (itv.valid && fits_u128(c.width) && itv.lo >= pow2(c.width)) {
      return true;
    }
    return false;
  }
  // Signed claim: bits [c.width - 1, w) must all be equal.
  Tri seen = Tri::U;
  for (int j = c.width - 1; j < w; ++j) {
    const Tri t = tri_of(kb, j);
    if (t == Tri::U) continue;
    if (seen == Tri::U) {
      seen = t;
    } else if (seen != t) {
      return true;
    }
  }
  // Sign-extended values concretise to [0, 2^(i-1)) u [2^w - 2^(i-1), 2^w).
  if (itv.valid && fits_u128(w)) {
    const u128 half = pow2(c.width - 1);
    if (itv.lo >= half && itv.hi < pow2(w) - half) return true;
  }
  return false;
}

}  // namespace dpmerge::check
