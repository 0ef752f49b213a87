// xoshiro256** 1.0 (Blackman & Vigna 2018): the repo's primary PRNG.
//
// 256 bits of state, period 2^256 - 1, passes BigCrush. All stochastic
// components (random tie-breaking, ETC generation, Genitor, Monte-Carlo
// sweeps) draw from this engine through the Rng facade so that every
// experiment in the repo is reproducible from a single 64-bit seed.
#pragma once

#include <array>
#include <cstdint>

namespace hcsched::rng {

class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by expanding `seed` with SplitMix64, as
  /// recommended by the generator's authors.
  explicit Xoshiro256ss(std::uint64_t seed) noexcept;

  std::uint64_t next() noexcept;
  std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Equivalent to 2^128 calls to next(): applies the published jump
  /// polynomial (256 steps of next()).
  void jump() noexcept;

  /// Equivalent to `count` calls to jump(), bit for bit, in
  /// O(popcount(count)) work: for each set bit k it applies the checked-in
  /// polynomial of 2^k jumps. Rng::split derives its streams through this.
  void jump(std::uint64_t count) noexcept;

  const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

 private:
  void apply(const std::array<std::uint64_t, 4>& poly) noexcept;

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace hcsched::rng
