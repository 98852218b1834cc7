#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>

namespace dpmerge::support {

/// A growable array of trivially copyable values that grows with
/// `std::realloc`, doubling its capacity. On glibc a large block then grows
/// by remapping its pages instead of copying them into freshly faulted
/// memory, which is what a `std::vector` regrowth costs (DESIGN.md §5b).
/// Only what the netlist's per-gate and per-net arrays need: append, index,
/// iterate, copy and move.
template <typename T>
class PodBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodBuffer moves its elements with realloc and memcpy");

 public:
  PodBuffer() = default;
  PodBuffer(const PodBuffer& other) { assign(other); }
  PodBuffer(PodBuffer&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }
  PodBuffer& operator=(const PodBuffer& other) {
    if (this != &other) assign(other);
    return *this;
  }
  PodBuffer& operator=(PodBuffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = other.capacity_ = 0;
    }
    return *this;
  }
  ~PodBuffer() { std::free(data_); }

  void push_back(const T& x) {
    if (size_ == capacity_) reallocate(capacity_ == 0 ? 16 : 2 * capacity_);
    std::memcpy(static_cast<void*>(data_ + size_), &x, sizeof(T));
    ++size_;
  }

  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<T> span() { return {data_, size_}; }
  std::span<const T> span() const { return {data_, size_}; }

 private:
  void reallocate(std::size_t capacity) {
    if (capacity > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_alloc();
    }
    void* p = std::realloc(static_cast<void*>(data_), capacity * sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
    capacity_ = capacity;
  }

  void assign(const PodBuffer& other) {
    if (other.size_ > capacity_) {
      std::free(data_);
      data_ = nullptr;
      capacity_ = 0;
      reallocate(other.size_);
    }
    if (other.size_ != 0) {
      std::memcpy(static_cast<void*>(data_), other.data_,
                  other.size_ * sizeof(T));
    }
    size_ = other.size_;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace dpmerge::support
