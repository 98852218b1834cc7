#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace dpmerge::support {

/// At most N values stored inline, for small fixed-arity lists (a gate's
/// pins, a term's factors) that must not cost a heap block each. Appending
/// past N throws `std::length_error` in every build type. Slots past
/// `size()` hold `T{}`, so `operator[]` may read all N.
template <typename T, int N>
class InlineList {
  static_assert(N > 0 && N < 256, "size is stored in one byte");

 public:
  static constexpr int kCapacity = N;

  InlineList() = default;
  InlineList(std::initializer_list<T> items) {
    for (const T& x : items) push_back(x);
  }

  void push_back(T x) {
    if (size_ == N) {
      throw std::length_error("inline list holds at most " +
                              std::to_string(N) + " values");
    }
    items_[size_++] = x;
  }

  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::array<T, N> items_{};
  std::uint8_t size_ = 0;
};

}  // namespace dpmerge::support
