#include "dpmerge/support/bitvector.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace dpmerge {

namespace {
constexpr int kWordBits = 64;
constexpr std::uint64_t kOnes = ~std::uint64_t{0};
}  // namespace

BitVector::BitVector(int width) : width_(width) {
  assert(width >= 0);
  if (on_heap()) heap_ = new std::uint64_t[num_words()]();
}

std::uint64_t* BitVector::new_words(const std::uint64_t* src) const {
  auto* words = new std::uint64_t[num_words()];
  std::copy_n(src, num_words(), words);
  return words;
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this == &other) return *this;
  if (!other.on_heap()) {
    if (on_heap()) delete[] heap_;
    word_ = other.word_;
  } else if (on_heap() && num_words() == other.num_words()) {
    std::copy_n(other.heap_, num_words(), heap_);
  } else {
    std::uint64_t* words = other.new_words(other.heap_);
    if (on_heap()) delete[] heap_;
    heap_ = words;
  }
  width_ = other.width_;
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this == &other) return *this;
  if (on_heap()) delete[] heap_;
  width_ = other.width_;
  if (on_heap()) {
    heap_ = other.heap_;
  } else {
    word_ = other.word_;
  }
  other.width_ = 0;
  other.word_ = 0;
  return *this;
}

BitVector BitVector::from_uint(int width, std::uint64_t v) {
  BitVector r(width);
  if (width > 0) r.set_word(0, v);
  return r;
}

BitVector BitVector::from_int(int width, std::int64_t v) {
  BitVector r(width);
  if (width == 0) return r;
  std::uint64_t* out = r.data();
  std::fill_n(out, r.num_words(), v < 0 ? kOnes : 0);
  out[0] = static_cast<std::uint64_t>(v);
  r.normalize();
  return r;
}

BitVector BitVector::from_string(std::string_view bits) {
  BitVector r(static_cast<int>(bits.size()));
  for (int i = 0; i < r.width_; ++i) {
    const char c = bits[bits.size() - 1 - static_cast<std::size_t>(i)];
    if (c != '0' && c != '1') throw std::invalid_argument("bad bit string");
    r.set_bit(i, c == '1');
  }
  return r;
}

void BitVector::normalize() {
  const int top_bits = width_ % kWordBits;
  if (top_bits != 0) {
    data()[num_words() - 1] &= kOnes >> (kWordBits - top_bits);
  }
}

bool BitVector::bit(int i) const {
  assert(i >= 0 && i < width_);
  return (data()[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::set_bit(int i, bool value) {
  assert(i >= 0 && i < width_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  std::uint64_t& w = data()[i / kWordBits];
  if (value) {
    w |= mask;
  } else {
    w &= ~mask;
  }
}

void BitVector::set_word(int k, std::uint64_t w) {
  assert(k >= 0 && k < num_words());
  data()[k] = w;
  if (k == num_words() - 1) normalize();
}

bool BitVector::is_zero() const {
  const std::uint64_t* in = data();
  return std::all_of(in, in + num_words(),
                     [](std::uint64_t w) { return w == 0; });
}

BitVector BitVector::truncate(int w) const {
  assert(w >= 0 && w <= width_);
  BitVector r(w);
  std::copy_n(data(), r.num_words(), r.data());
  r.normalize();
  return r;
}

BitVector BitVector::extend(int w, Sign t) const {
  assert(w >= width_);
  BitVector r(w);
  const int n = num_words();
  std::uint64_t* out = r.data();
  std::copy_n(data(), n, out);
  if (t == Sign::Signed && width_ > 0 && msb()) {
    // Fill above the MSB: the rest of its word, then whole words.
    if (width_ % kWordBits != 0) out[n - 1] |= kOnes << (width_ % kWordBits);
    std::fill(out + n, out + r.num_words(), kOnes);
    r.normalize();
  }
  return r;
}

BitVector BitVector::resize(int w, Sign t) const {
  return w <= width_ ? truncate(w) : extend(w, t);
}

BitVector BitVector::add(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  BitVector r(width_);
  const std::uint64_t* x = data();
  const std::uint64_t* y = rhs.data();
  std::uint64_t* out = r.data();
  std::uint64_t carry = 0;
  for (int i = 0; i < num_words(); ++i) {
    const std::uint64_t s = x[i] + y[i];
    const std::uint64_t s2 = s + carry;
    out[i] = s2;
    carry = (s < x[i]) || (s2 < s) ? 1 : 0;
  }
  r.normalize();
  return r;
}

BitVector BitVector::sub(const BitVector& rhs) const {
  return add(rhs.negate());
}

BitVector BitVector::mul(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  BitVector r(width_);
  const int n = num_words();
  const std::uint64_t* x = data();
  const std::uint64_t* y = rhs.data();
  // Schoolbook multiplication on 64-bit words, accumulating straight into
  // the (zeroed) result and keeping only the low `width_` bits.
  std::uint64_t* acc = r.data();
  for (int i = 0; i < n; ++i) {
    if (x[i] == 0) continue;
    std::uint64_t carry = 0;
    for (int j = 0; i + j < n; ++j) {
      // 64x64 -> 128 via __uint128_t (GCC/Clang).
      const unsigned __int128 p =
          static_cast<unsigned __int128>(x[i]) * y[j] + acc[i + j] + carry;
      acc[i + j] = static_cast<std::uint64_t>(p);
      carry = static_cast<std::uint64_t>(p >> 64);
    }
  }
  r.normalize();
  return r;
}

BitVector BitVector::negate() const { return bit_not().add(from_uint(width_, width_ > 0 ? 1 : 0)); }

BitVector BitVector::shl(int s) const {
  assert(s >= 0);
  BitVector r(width_);
  if (s >= width_) return r;
  const std::uint64_t* x = data();
  std::uint64_t* out = r.data();
  const int ws = s / kWordBits;
  const int bs = s % kWordBits;
  for (int i = num_words() - 1; i >= ws; --i) {
    std::uint64_t v = x[i - ws] << bs;
    if (bs != 0 && i - ws - 1 >= 0) v |= x[i - ws - 1] >> (kWordBits - bs);
    out[i] = v;
  }
  r.normalize();
  return r;
}

BitVector BitVector::bit_not() const {
  BitVector r(width_);
  const std::uint64_t* x = data();
  std::uint64_t* out = r.data();
  for (int i = 0; i < num_words(); ++i) out[i] = ~x[i];
  r.normalize();
  return r;
}

bool BitVector::operator==(const BitVector& rhs) const {
  return width_ == rhs.width_ &&
         std::equal(data(), data() + num_words(), rhs.data());
}

std::uint64_t BitVector::to_uint64() const {
  return width_ == 0 ? 0 : data()[0];
}

std::int64_t BitVector::to_int64() const {
  assert(width_ <= 64);
  if (width_ == 0) return 0;
  std::uint64_t v = data()[0];
  if (width_ < 64 && msb()) {
    v |= kOnes << width_;
  }
  return static_cast<std::int64_t>(v);
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

int BitVector::highest_bit_unlike(bool fill) const {
  const std::uint64_t f = fill ? kOnes : 0;
  const std::uint64_t* x = data();
  const int top_bits = width_ % kWordBits;
  for (int k = num_words() - 1; k >= 0; --k) {
    std::uint64_t diff = x[k] ^ f;
    if (k == num_words() - 1 && top_bits != 0) {
      diff &= kOnes >> (kWordBits - top_bits);
    }
    if (diff != 0) return k * kWordBits + 63 - std::countl_zero(diff);
  }
  return -1;
}

bool BitVector::is_extension_of_low(int i, Sign t) const {
  assert(i >= 0 && i <= width_);
  if (i == width_) return true;
  const bool fill = (t == Sign::Signed) && i > 0 && bit(i - 1);
  return highest_bit_unlike(fill) < i;
}

int BitVector::min_extension_width(Sign t) const {
  if (t == Sign::Unsigned) return highest_bit_unlike(false) + 1;
  // Signed: the bits above the highest one unlike the MSB are sign copies,
  // so that bit plus one sign bit suffice. Only zero needs no bits at all.
  if (width_ == 0) return 0;
  const int h = highest_bit_unlike(msb());
  if (h < 0) return msb() ? 1 : 0;
  return h + 2;
}

bool BitVector::unsigned_lt(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  const std::uint64_t* x = data();
  const std::uint64_t* y = rhs.data();
  for (int i = num_words() - 1; i >= 0; --i) {
    if (x[i] != y[i]) return x[i] < y[i];
  }
  return false;
}

bool BitVector::signed_lt(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  if (width_ == 0) return false;
  if (msb() != rhs.msb()) return msb();  // negative < non-negative
  return unsigned_lt(rhs);
}

}  // namespace dpmerge
