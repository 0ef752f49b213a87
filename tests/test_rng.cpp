#include "rng/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace {

using hcsched::rng::Rng;
using hcsched::rng::Xoshiro256ss;

// The first 64 draws of `stream` must be those of `oracle` (taken by copy).
void expect_same_draws(Rng stream, Xoshiro256ss oracle, const char* what,
                       std::uint64_t index) {
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(stream.next_u64(), oracle.next())
        << what << " " << index << ", draw " << i;
  }
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanAndVariance) {
  Rng rng(2);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform01();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.5, 12.25);
    EXPECT_GE(x, -3.5);
    EXPECT_LT(x, 12.25);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(4);
  std::array<int, 7> counts{};
  constexpr int kN = 70000;
  for (int i = 0; i < kN; ++i) {
    ++counts[static_cast<std::size_t>(rng.below(7))];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 1.0 / 7.0, 0.01);
  }
}

TEST(Rng, BelowBoundOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0ULL);
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(6);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(7);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, GammaMomentsShapeAboveOne) {
  Rng rng(9);
  const double shape = 4.0;
  const double scale = 2.5;
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.gamma(shape, scale);
    EXPECT_GT(x, 0.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.15);               // E = 10
  EXPECT_NEAR(var, shape * scale * scale, 1.0);         // V = 25
}

TEST(Rng, GammaMomentsShapeBelowOne) {
  Rng rng(10);
  const double shape = 0.5;
  const double scale = 3.0;
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.gamma(shape, scale);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, shape * scale, 0.05);  // E = 1.5
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(12);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(std::span<int>(v));
  int fixed = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[static_cast<size_t>(i)] == i) ++fixed;
  }
  EXPECT_LT(fixed, 20);  // expected ~1 fixed point
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(13);
  Rng a = base.split(0);
  Rng b = base.split(1);
  Rng a_again = Rng(13).split(0);
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next_u64();
    EXPECT_EQ(x, a_again.next_u64());
    if (x == b.next_u64()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Rng, SplitMatchesSequentialJumps) {
  // Oracle: the former split, `for (i = 0; i <= k; ++i) engine.jump()`,
  // built incrementally with one jump per index.
  Xoshiro256ss oracle(13);
  for (std::uint64_t k = 0; k <= 1100; ++k) {
    oracle.jump();
    expect_same_draws(Rng(13).split(k), oracle, "split", k);
  }
}

TEST(Rng, SplitOfSplitStreamMatchesSequentialJumps) {
  // The study's shape: Rng(seed).split(trial).split(heuristic).
  for (std::uint64_t trial : {0ULL, 1ULL, 7ULL, 999ULL}) {
    const Rng trial_rng = Rng(20070326).split(trial);
    Xoshiro256ss oracle(20070326);
    for (std::uint64_t i = 0; i <= trial; ++i) oracle.jump();
    for (std::uint64_t h = 0; h < 16; ++h) {
      oracle.jump();
      expect_same_draws(trial_rng.split(h), oracle, "split of trial", trial);
    }
  }
}

TEST(Rng, SplitOfSizeMaxIsDefined) {
  // SIZE_MAX + 1 = 2^64 jumps, taken as jump(SIZE_MAX) then jump(), and
  // equally as two jumps of 2^63.
  Xoshiro256ss composed(5);
  composed.jump(SIZE_MAX);
  composed.jump();
  Xoshiro256ss halves(5);
  halves.jump(1ULL << 63);
  halves.jump(1ULL << 63);
  ASSERT_EQ(composed.state(), halves.state());
  expect_same_draws(Rng(5).split(SIZE_MAX), composed, "split", SIZE_MAX);
}

TEST(Rng, ReproducibleFromSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

}  // namespace
