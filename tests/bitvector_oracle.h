// Bit-serial reference for BitVector: a value is one bool per bit, LSB
// first, and every operation is the textbook bit loop (ripple-carry add,
// shift-and-add multiply, Definition 5.1 taken literally for the extension
// queries). It shares no code and no word layout with the class it checks;
// it meets BitVector only through `from_string` / `to_string`, whose bit
// order the oracle test pins separately.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/support/bitvector.h"

namespace dpmerge::oracle {

struct Bits {
  std::vector<bool> b;  ///< b[i] = bit i

  int width() const { return static_cast<int>(b.size()); }
  bool operator==(const Bits&) const = default;
};

inline Bits zeros(int width) { return {std::vector<bool>(width, false)}; }

inline Bits of(const BitVector& v) {
  const std::string s = v.to_string();  // MSB first
  Bits r = zeros(static_cast<int>(s.size()));
  for (int i = 0; i < r.width(); ++i) r.b[i] = s[s.size() - 1 - i] == '1';
  return r;
}

inline BitVector to_bitvector(const Bits& x) {
  std::string s(static_cast<std::size_t>(x.width()), '0');
  for (int i = 0; i < x.width(); ++i) {
    if (x.b[i]) s[s.size() - 1 - i] = '1';
  }
  return BitVector::from_string(s);
}

inline Bits from_uint(int width, std::uint64_t v) {
  Bits r = zeros(width);
  for (int i = 0; i < width && i < 64; ++i) r.b[i] = (v >> i) & 1u;
  return r;
}

inline Bits from_int(int width, std::int64_t v) {
  Bits r = from_uint(width, static_cast<std::uint64_t>(v));
  for (int i = 64; i < width; ++i) r.b[i] = v < 0;
  return r;
}

inline bool msb(const Bits& x) { return x.b.back(); }

inline bool is_zero(const Bits& x) {
  for (bool bit : x.b) {
    if (bit) return false;
  }
  return true;
}

inline Bits truncate(const Bits& x, int w) {
  Bits r = zeros(w);
  for (int i = 0; i < w; ++i) r.b[i] = x.b[i];
  return r;
}

inline Bits extend(const Bits& x, int w, Sign t) {
  const bool fill = t == Sign::Signed && x.width() > 0 && msb(x);
  Bits r = zeros(w);
  for (int i = 0; i < w; ++i) r.b[i] = i < x.width() ? x.b[i] : fill;
  return r;
}

inline Bits resize(const Bits& x, int w, Sign t) {
  return w <= x.width() ? truncate(x, w) : extend(x, w, t);
}

inline Bits bit_not(const Bits& x) {
  Bits r = x;
  for (int i = 0; i < r.width(); ++i) r.b[i] = !x.b[i];
  return r;
}

inline Bits add(const Bits& x, const Bits& y) {
  Bits r = zeros(x.width());
  bool carry = false;
  for (int i = 0; i < x.width(); ++i) {
    const int s = int{x.b[i]} + int{y.b[i]} + int{carry};
    r.b[i] = s & 1;
    carry = s > 1;
  }
  return r;
}

inline Bits negate(const Bits& x) {
  return add(bit_not(x), from_uint(x.width(), 1));
}

inline Bits sub(const Bits& x, const Bits& y) { return add(x, negate(y)); }

inline Bits mul(const Bits& x, const Bits& y) {
  const int w = x.width();
  Bits acc = zeros(w);
  for (int i = 0; i < w; ++i) {
    if (!x.b[i]) continue;
    bool carry = false;  // acc += y << i, keeping the low w bits
    for (int j = 0; i + j < w; ++j) {
      const int s = int{acc.b[i + j]} + int{y.b[j]} + int{carry};
      acc.b[i + j] = s & 1;
      carry = s > 1;
    }
  }
  return acc;
}

inline Bits shl(const Bits& x, int s) {
  Bits r = zeros(x.width());
  for (int i = s; i < x.width(); ++i) r.b[i] = x.b[i - s];
  return r;
}

inline bool unsigned_lt(const Bits& x, const Bits& y) {
  for (int i = x.width() - 1; i >= 0; --i) {
    if (x.b[i] != y.b[i]) return y.b[i];
  }
  return false;
}

inline bool signed_lt(const Bits& x, const Bits& y) {
  if (x.width() == 0) return false;
  if (msb(x) != msb(y)) return msb(x);
  return unsigned_lt(x, y);
}

inline std::uint64_t to_uint64(const Bits& x) {
  std::uint64_t v = 0;
  for (int i = 0; i < x.width() && i < 64; ++i) {
    v |= static_cast<std::uint64_t>(x.b[i]) << i;
  }
  return v;
}

/// Requires width <= 64.
inline std::int64_t to_int64(const Bits& x) {
  return static_cast<std::int64_t>(to_uint64(extend(x, 64, Sign::Signed)));
}

/// Definition 5.1: `<i, t>` holds iff x is the t-extension of its i LSBs.
inline bool is_extension_of_low(const Bits& x, int i, Sign t) {
  return extend(truncate(x, i), x.width(), t) == x;
}

inline int min_extension_width(const Bits& x, Sign t) {
  int i = 0;
  while (!is_extension_of_low(x, i, t)) ++i;
  return i;
}

}  // namespace dpmerge::oracle
