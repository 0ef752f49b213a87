#include "rng/xoshiro256ss.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>

namespace {

using hcsched::rng::Xoshiro256ss;

// Independent transcription of Blackman & Vigna's xoshiro256starstar.c,
// seeded the same way (SplitMix64 expansion), used as the oracle.
struct Reference {
  std::array<std::uint64_t, 4> s{};

  explicit Reference(std::uint64_t seed) {
    for (auto& word : s) {
      std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
};

TEST(Xoshiro256ss, MatchesReferenceAlgorithm) {
  Xoshiro256ss engine(987654321);
  Reference ref(987654321);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(engine.next(), ref.next()) << "at step " << i;
  }
}

TEST(Xoshiro256ss, DeterministicFromSeed) {
  Xoshiro256ss a(5);
  Xoshiro256ss b(5);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256ss, JumpChangesStateAndDecorrelates) {
  Xoshiro256ss a(99);
  Xoshiro256ss b(99);
  b.jump();
  EXPECT_NE(a.state(), b.state());
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Xoshiro256ss, JumpIsDeterministic) {
  Xoshiro256ss a(1);
  Xoshiro256ss b(1);
  a.jump();
  b.jump();
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.next(), b.next());
}

// Replaces ref's state by poly(T)(state), T being one step: the reference
// jump loop of xoshiro256starstar.c, generalised to any jump polynomial.
void apply(Reference& ref, const std::array<std::uint64_t, 4>& poly) {
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t word : poly) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= ref.s[i];
      }
      ref.next();
    }
  }
  ref.s = acc;
}

// jump(n) against n sequential jump() calls for every n in [0, n_max]; the
// oracle advances by one naive jump per step.
void expect_jump_count_matches_repeated_jump(std::uint64_t seed,
                                             std::uint64_t n_max) {
  Xoshiro256ss oracle(seed);
  for (std::uint64_t n = 0; n <= n_max; ++n) {
    Xoshiro256ss fast(seed);
    fast.jump(n);
    ASSERT_EQ(fast.state(), oracle.state()) << "seed " << seed << ", n " << n;
    oracle.jump();
  }
}

TEST(Xoshiro256ss, JumpAppliesPublishedJumpPolynomial) {
  // JUMP from Blackman & Vigna's xoshiro256starstar.c. Two different
  // polynomials agree on a random state with probability at most 1/2, so
  // 64 states pin level 0 of the jump table to it.
  constexpr std::array<std::uint64_t, 4> kPublished = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256ss engine(seed);
    engine.jump();
    Reference ref(seed);
    apply(ref, kPublished);
    ASSERT_EQ(engine.state(), ref.s) << "seed " << seed;
  }
}

TEST(Xoshiro256ss, JumpTableLevelIsPreviousLevelSquared) {
  // jump(2^k) applied twice must equal jump(2^(k+1)), for every level of
  // the 64-level table behind jump(count); with level 0 pinned above this
  // pins the table and its indexing by induction, on 64 states as above.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (int k = 0; k < 63; ++k) {
      Xoshiro256ss twice(seed);
      twice.jump(1ULL << k);
      twice.jump(1ULL << k);
      Xoshiro256ss once(seed);
      once.jump(1ULL << (k + 1));
      ASSERT_EQ(twice.state(), once.state()) << "level " << k << ", seed "
                                             << seed;
    }
  }
}

TEST(Xoshiro256ss, JumpCountEqualsRepeatedJump) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    expect_jump_count_matches_repeated_jump(seed, 2100);
  }
}

TEST(Xoshiro256ss, JumpCountEqualsRepeatedJumpPastTwoToTheTwenty) {
  constexpr std::uint64_t kCount = (1ULL << 20) + 12345;
  Xoshiro256ss naive(77);
  for (std::uint64_t i = 0; i < kCount; ++i) naive.jump();
  Xoshiro256ss fast(77);
  fast.jump(kCount);
  EXPECT_EQ(fast.state(), naive.state());
}

// `stress` label (tests/CMakeLists.txt): every count below 2^14.
TEST(XoshiroJumpStress, JumpCountEqualsRepeatedJumpBelowTwoToTheFourteen) {
  expect_jump_count_matches_repeated_jump(20070326, (1ULL << 14) - 1);
}

TEST(Xoshiro256ss, BitsLookUniform) {
  // Each of the 64 bit positions should be set roughly half the time.
  Xoshiro256ss engine(2024);
  constexpr int kSamples = 20000;
  std::array<int, 64> ones{};
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = engine.next();
    for (int bit = 0; bit < 64; ++bit) {
      if (v & (1ULL << bit)) ++ones[static_cast<std::size_t>(bit)];
    }
  }
  for (int bit = 0; bit < 64; ++bit) {
    const double p = static_cast<double>(ones[static_cast<std::size_t>(bit)]) /
                     kSamples;
    EXPECT_NEAR(p, 0.5, 0.02) << "bit " << bit;
  }
}

TEST(Xoshiro256ss, NoImmediateRepeats) {
  Xoshiro256ss engine(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(engine.next()).second);
  }
}

}  // namespace
