#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dpmerge/support/sign.h"

namespace dpmerge {

/// Arbitrary-width bit vector with two's-complement arithmetic semantics.
///
/// `BitVector` is the single source of arithmetic truth in dpmerge: the DFG
/// interpreter, the gate-level netlist simulator cross-checks, and the
/// information-content soundness property tests all evaluate through it.
///
/// A `BitVector` has a fixed `width()` in bits. All arithmetic operations are
/// performed modulo 2^width (both operands must have equal width); signedness
/// is not a property of the vector but of how it is *extended* (Definition
/// 2.1 of the paper) or interpreted (`to_int64`, `signed_lt`, ...).
///
/// Bits are stored little-endian in 64-bit words; unused high bits of the top
/// word are kept zero as a class invariant. A value of at most 64 bits lives
/// in one inline word; only wider values own a heap block. Operations work
/// on whole words through `data()`, so the two cases share one code path.
/// A moved-from vector is empty (width 0).
class BitVector {
 public:
  /// The zero-width vector (identity for `concat`-style uses; rarely needed).
  BitVector() = default;

  /// A `width`-bit vector of all zeros. `width >= 0`.
  explicit BitVector(int width);

  BitVector(const BitVector& other) : width_(other.width_) {
    if (on_heap()) {
      heap_ = new_words(other.heap_);
    } else {
      word_ = other.word_;
    }
  }
  BitVector(BitVector&& other) noexcept : width_(other.width_) {
    if (on_heap()) {
      heap_ = other.heap_;
    } else {
      word_ = other.word_;
    }
    other.width_ = 0;
    other.word_ = 0;
  }
  BitVector& operator=(const BitVector& other);
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector() {
    if (on_heap()) delete[] heap_;
  }

  /// Builds a `width`-bit vector from the low bits of `v` (zero-extended).
  static BitVector from_uint(int width, std::uint64_t v);

  /// Builds a `width`-bit vector from `v` reduced modulo 2^width
  /// (i.e. sign bits of `v` propagate into widths above 64).
  static BitVector from_int(int width, std::int64_t v);

  /// Parses a binary string, MSB first, e.g. "0101" -> width 4, value 5.
  static BitVector from_string(std::string_view bits);

  int width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// Value of bit `i` (bit 0 = least significant). Requires 0 <= i < width.
  bool bit(int i) const;
  void set_bit(int i, bool value);

  /// Stores word `k` (bits 64k..64k+63); bits above `width` are dropped.
  /// Requires 0 <= k < ceil(width / 64).
  void set_word(int k, std::uint64_t w);

  /// Most significant bit; requires width >= 1.
  bool msb() const { return bit(width_ - 1); }

  bool is_zero() const;

  /// Keeps the `w` least significant bits. Requires 0 <= w <= width.
  BitVector truncate(int w) const;

  /// Pads to `w` bits (w >= width) with zeros (`Sign::Unsigned`) or with
  /// copies of the MSB (`Sign::Signed`). A signed extension of a zero-width
  /// vector is defined as all zeros.
  BitVector extend(int w, Sign t) const;

  /// `truncate` when w <= width, `extend` otherwise. This is exactly the
  /// width-adaptation operation the DFG edge semantics of Section 2.2 need.
  BitVector resize(int w, Sign t) const;

  /// Modular arithmetic; operands must have equal widths.
  BitVector add(const BitVector& rhs) const;
  BitVector sub(const BitVector& rhs) const;
  BitVector mul(const BitVector& rhs) const;

  /// Two's-complement negation (modulo 2^width).
  BitVector negate() const;

  /// Left shift by `s` bits within the same width (modulo 2^width).
  BitVector shl(int s) const;

  /// Bitwise complement.
  BitVector bit_not() const;

  bool operator==(const BitVector& rhs) const;
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// Low 64 bits, zero-extended.
  std::uint64_t to_uint64() const;

  /// Two's-complement interpretation; requires width <= 64.
  std::int64_t to_int64() const;

  /// MSB-first binary string, e.g. width-4 value 5 -> "0101".
  std::string to_string() const;

  /// True iff this vector equals the `t`-extension of its `i` least
  /// significant bits — i.e. `<i, t>` is a valid information-content claim
  /// for this value (Definition 5.1). Requires 0 <= i <= width.
  bool is_extension_of_low(int i, Sign t) const;

  /// Smallest `i` such that the vector is a `t`-extension of its `i` LSBs.
  int min_extension_width(Sign t) const;

  /// Unsigned / signed comparisons (equal widths required).
  bool unsigned_lt(const BitVector& rhs) const;
  bool signed_lt(const BitVector& rhs) const;

 private:
  static constexpr int kInlineBits = 64;

  bool on_heap() const { return width_ > kInlineBits; }
  std::uint64_t* data() { return on_heap() ? heap_ : &word_; }
  const std::uint64_t* data() const { return on_heap() ? heap_ : &word_; }
  int num_words() const { return (width_ + 63) / 64; }
  void normalize();  // zero the unused bits of the top word
  /// A fresh heap block holding a copy of this width's words from `src`.
  std::uint64_t* new_words(const std::uint64_t* src) const;
  /// Index of the highest bit that differs from `fill`, or -1.
  int highest_bit_unlike(bool fill) const;

  int width_ = 0;
  union {
    std::uint64_t word_ = 0;  ///< the value, while width <= 64
    std::uint64_t* heap_;     ///< num_words() words, while width > 64
  };
};
static_assert(sizeof(BitVector) <= 16,
              "a BitVector of <= 64 bits is one inline word and a width");

}  // namespace dpmerge
