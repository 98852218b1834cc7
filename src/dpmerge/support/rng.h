#pragma once

#include <cstdint>
#include <random>

#include "dpmerge/support/bitvector.h"

namespace dpmerge {

/// Deterministic random source used by tests, property sweeps and workload
/// generators. Thin wrapper over std::mt19937_64 with helpers for the types
/// dpmerge traffics in; fixed seeds keep every experiment reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// True with probability p.
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) < p;
  }

  std::uint64_t next_u64() { return engine_(); }

  /// Uniformly random `width`-bit vector.
  BitVector bits(int width) {
    BitVector v(width);
    for (int k = 0; k * 64 < width; ++k) v.set_word(k, engine_());
    return v;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dpmerge
