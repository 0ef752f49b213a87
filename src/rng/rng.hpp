// Rng: the facade every stochastic component in hcsched draws from.
//
// Wraps xoshiro256** with the distribution helpers the library needs
// (uniform doubles, bounded integers without modulo bias, gamma variates for
// the CVB ETC generator, shuffles). A deliberate non-goal is std::<random>
// distribution compatibility: libstdc++/libc++ distributions are not
// reproducible across standard-library versions, and bitwise reproducibility
// of experiments from a seed is a core requirement here.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rng/xoshiro256ss.hpp"

namespace hcsched::rng {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept
      : engine_(seed) {}

  /// Raw 64 bits.
  std::uint64_t next_u64() noexcept { return engine_.next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept {
    return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection
  /// method (no modulo bias). `bound` must be nonzero.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with success probability p.
  bool chance(double p) noexcept { return uniform01() < p; }

  /// Standard normal variate (polar Marsaglia method, cached spare).
  double normal() noexcept;

  /// Gamma(shape, scale) variate via Marsaglia & Tsang (2000); handles
  /// shape < 1 by boosting. Used by the CVB ETC generator.
  double gamma(double shape, double scale) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// A statistically independent child stream: a copy of the engine
  /// advanced by the equivalent of `stream_index + 1` jumps (each jump is
  /// 2^128 steps), in O(popcount) work. Defined for every index,
  /// SIZE_MAX included.
  Rng split(std::size_t stream_index) const noexcept;

 private:
  Xoshiro256ss engine_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hcsched::rng
