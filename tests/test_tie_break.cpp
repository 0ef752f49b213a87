#include "rng/tie_break.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "obs/counters.hpp"

namespace {

using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::rng::TiePolicy;

/// 40 script entries in [0, 7): some past the end of small tied sets (to
/// exercise clamping), and few enough that long runs exhaust the script.
std::vector<std::size_t> test_script(std::uint64_t seed) {
  Rng script_rng(seed ^ 0xabcdefull);
  std::vector<std::size_t> script(40);
  for (std::size_t& entry : script) {
    entry = static_cast<std::size_t>(script_rng.below(7));
  }
  return script;
}

/// A TieBreaker under `policy` plus the RNG it draws from, for side-by-side
/// comparisons of two identically-configured instances.
struct PolicyCase {
  explicit PolicyCase(TiePolicy policy, std::uint64_t seed)
      : rng(seed), ties(make(policy, rng, seed)) {}

  static TieBreaker make(TiePolicy policy, Rng& rng, std::uint64_t seed) {
    switch (policy) {
      case TiePolicy::kRandom:
        return TieBreaker(rng);
      case TiePolicy::kScripted:
        return TieBreaker(test_script(seed));
      case TiePolicy::kDeterministic:
        break;
    }
    return TieBreaker();
  }

  Rng rng;
  TieBreaker ties;
};

/// choose_min/choose_max built the obvious way: a sequential std::min /
/// std::max chain, the indices equal to the extreme collected into a vector,
/// then one picked under the policy. Tracks its own decision/tie-event
/// counts and script position, and shares no code with src/rng/.
class OracleTieBreaker {
 public:
  OracleTieBreaker(TiePolicy policy, Rng& rng, std::uint64_t seed)
      : policy_(policy), rng_(&rng) {
    if (policy == TiePolicy::kScripted) script_ = test_script(seed);
  }

  std::size_t choose(const std::vector<double>& scores, bool largest) {
    ++decisions;
    double best = scores[0];
    for (double s : scores) {
      best = largest ? std::max(best, s) : std::min(best, s);
    }
    std::vector<std::size_t> tied;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] == best) tied.push_back(i);
    }
    if (tied.size() == 1) return tied.front();
    ++tie_events;
    switch (policy_) {
      case TiePolicy::kDeterministic:
        return tied.front();
      case TiePolicy::kRandom:
        return tied[static_cast<std::size_t>(rng_->below(tied.size()))];
      case TiePolicy::kScripted: {
        std::size_t pick = 0;
        if (script_pos_ < script_.size()) pick = script_[script_pos_++];
        return tied[std::min(pick, tied.size() - 1)];
      }
    }
    return tied.front();
  }

  std::size_t decisions = 0;
  std::size_t tie_events = 0;

 private:
  TiePolicy policy_;
  Rng* rng_;
  std::vector<std::size_t> script_{};
  std::size_t script_pos_ = 0;
};

constexpr TiePolicy kPolicies[] = {TiePolicy::kDeterministic,
                                   TiePolicy::kRandom, TiePolicy::kScripted};

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TieBreaker, DeterministicPicksFirstOfTied) {
  TieBreaker tb;
  const std::vector<double> scores = {3.0, 1.0, 1.0, 2.0};
  EXPECT_EQ(tb.choose_min(scores), 1u);
  EXPECT_EQ(tb.tie_events(), 1u);
}

TEST(TieBreaker, NoTieNoEvent) {
  TieBreaker tb;
  const std::vector<double> scores = {3.0, 1.0, 2.0};
  EXPECT_EQ(tb.choose_min(scores), 1u);
  EXPECT_EQ(tb.tie_events(), 0u);
  EXPECT_EQ(tb.decisions(), 1u);
}

TEST(TieBreaker, ChooseMaxPicksLargest) {
  TieBreaker tb;
  const std::vector<double> scores = {3.0, 5.0, 5.0, 2.0};
  EXPECT_EQ(tb.choose_max(scores), 1u);
  EXPECT_EQ(tb.tie_events(), 1u);
}

TEST(TieBreaker, EmptyInputReturnsNpos) {
  TieBreaker tb;
  EXPECT_EQ(tb.choose_min({}), TieBreaker::npos);
  EXPECT_EQ(tb.choose_max({}), TieBreaker::npos);
  EXPECT_EQ(tb.choose_among({}), TieBreaker::npos);
}

TEST(TieBreaker, TiedPredicate) {
  // A tie is exact equality: the next double above 1.0 is a distinct
  // score, however small the gap.
  const std::vector<double> near = {1.0, std::nextafter(1.0, 2.0)};
  TieBreaker tb;
  EXPECT_EQ(tb.choose_min(near), 0u);
  EXPECT_EQ(tb.choose_max(near), 1u);
  EXPECT_EQ(tb.tie_events(), 0u);
  const std::vector<double> equal = {1.0, 1.0};
  EXPECT_EQ(tb.choose_min(equal), 0u);
  EXPECT_EQ(tb.tie_events(), 1u);
  EXPECT_EQ(tb.decisions(), 3u);
}

TEST(TieBreaker, InfiniteScoresTieOnlyTheSameInfinity) {
  TieBreaker tb;
  // +inf and -inf, and +inf and the largest finite scores, never tie.
  const std::vector<double> opposite = {kInf, -kInf};
  EXPECT_EQ(tb.choose_min(opposite), 1u);
  EXPECT_EQ(tb.choose_max(opposite), 0u);
  const std::vector<double> finite_max = {1e308, kInf};
  EXPECT_EQ(tb.choose_max(finite_max), 1u);
  EXPECT_EQ(tb.tie_events(), 0u);
  // A row of +inf (or -inf) is one tied set: the deterministic policy takes
  // its first member and records a genuine tie, in both directions.
  const std::vector<double> all_inf(5, kInf);
  EXPECT_EQ(tb.choose_min(all_inf), 0u);
  EXPECT_EQ(tb.choose_max(all_inf), 0u);
  EXPECT_EQ(tb.choose_min(std::vector<double>(3, -kInf)), 0u);
  EXPECT_EQ(tb.tie_events(), 3u);
  const std::vector<double> mixed = {kInf, 3.0, kInf, 3.0};
  EXPECT_EQ(tb.choose_min(mixed), 1u);
  EXPECT_EQ(tb.choose_max(mixed), 0u);
  EXPECT_EQ(tb.tie_events(), 5u);
}

#if HCSCHED_CHECK_ENABLED
TEST(TieBreakerDeathTest, NanScoreViolatesPrecondition) {
  const std::vector<double> scores = {
      1.0, std::numeric_limits<double>::quiet_NaN(), 2.0};
  EXPECT_DEATH((void)TieBreaker().choose_min(scores), "NaN score");
  EXPECT_DEATH((void)TieBreaker().choose_max(scores), "NaN score");
}
#endif

TEST(TieBreaker, RandomCoversAllTiedCandidates) {
  Rng rng(77);
  TieBreaker tb(rng);
  const std::vector<double> scores = {1.0, 1.0, 1.0, 9.0};
  std::array<int, 4> counts{};
  for (int i = 0; i < 3000; ++i) {
    ++counts[tb.choose_min(scores)];
  }
  EXPECT_EQ(counts[3], 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(i)] / 3000.0, 1.0 / 3.0,
                0.05);
  }
}

TEST(TieBreaker, RandomNeverPicksNonMinimal) {
  Rng rng(78);
  TieBreaker tb(rng);
  const std::vector<double> scores = {2.0, 1.0, 1.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(tb.choose_min(scores), 0u);
  }
}

TEST(TieBreaker, ScriptedReplaysChoices) {
  TieBreaker tb(std::vector<std::size_t>{1, 0, 2});
  const std::vector<double> tie3 = {1.0, 1.0, 1.0};
  EXPECT_EQ(tb.choose_min(tie3), 1u);
  EXPECT_EQ(tb.choose_min(tie3), 0u);
  EXPECT_EQ(tb.choose_min(tie3), 2u);
  // Script exhausted -> deterministic (first tied).
  EXPECT_EQ(tb.choose_min(tie3), 0u);
}

TEST(TieBreaker, ScriptedClampsOutOfRangeEntries) {
  TieBreaker tb(std::vector<std::size_t>{9});
  const std::vector<double> tie2 = {1.0, 1.0};
  EXPECT_EQ(tb.choose_min(tie2), 1u);  // clamped to last tied candidate
}

TEST(TieBreaker, ScriptedEntriesOnlyConsumedOnRealTies) {
  TieBreaker tb(std::vector<std::size_t>{1});
  const std::vector<double> no_tie = {2.0, 1.0, 3.0};
  EXPECT_EQ(tb.choose_min(no_tie), 1u);  // no tie: script untouched
  const std::vector<double> tie2 = {1.0, 1.0};
  EXPECT_EQ(tb.choose_min(tie2), 1u);  // consumes the script entry
}

TEST(TieBreaker, ChooseAmongRespectsPolicy) {
  TieBreaker det;
  const std::vector<std::size_t> tied = {4, 7, 9};
  EXPECT_EQ(det.choose_among(tied), 4u);

  TieBreaker scripted(std::vector<std::size_t>{2});
  EXPECT_EQ(scripted.choose_among(tied), 9u);
}

TEST(TieBreaker, PolicyAccessors) {
  TieBreaker det;
  EXPECT_EQ(det.policy(), TiePolicy::kDeterministic);
  Rng rng(1);
  TieBreaker rnd(rng);
  EXPECT_EQ(rnd.policy(), TiePolicy::kRandom);
  TieBreaker scripted(std::vector<std::size_t>{1});
  EXPECT_EQ(scripted.policy(), TiePolicy::kScripted);
}

TEST(TieBreaker, ChooseMinMaxMatchTiedVectorOracle) {
  // Random score vectors drawn from a handful of values (so exact ties are
  // the norm, not the exception) plus 1e-10 jitter on some cells, near
  // values that must not tie: the allocation-free count-then-locate pick
  // must equal the collect-then-pick oracle's, and so must the counts and
  // the RNG stream left behind.
  for (const TiePolicy policy : kPolicies) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      PolicyCase subject(policy, seed);
      Rng oracle_rng(seed);
      OracleTieBreaker oracle(policy, oracle_rng, seed);
      Rng gen(seed * 977);
      for (int call = 0; call < 50; ++call) {
        std::vector<double> scores(1 + gen.below(12));
        for (double& s : scores) {
          s = static_cast<double>(1 + gen.below(4));
          if (gen.chance(0.2)) s += 1e-10;
        }
        const bool largest = gen.chance(0.5);
        const std::size_t got = largest ? subject.ties.choose_max(scores)
                                        : subject.ties.choose_min(scores);
        const std::size_t want = oracle.choose(scores, largest);
        ASSERT_EQ(got, want) << "policy " << static_cast<int>(policy)
                             << " seed " << seed << " call " << call;
      }
      EXPECT_EQ(subject.ties.decisions(), oracle.decisions);
      EXPECT_EQ(subject.ties.tie_events(), oracle.tie_events);
      EXPECT_EQ(subject.rng.next_u64(), oracle_rng.next_u64())
          << "RNG streams diverged under policy " << static_cast<int>(policy);
    }
  }
}

TEST(TieBreaker, AccountUniqueEqualsSingletonChooseAmong) {
  // account_unique(k) must leave exactly the state k one-element
  // choose_among calls leave: counts, counters, the RNG stream (random) and
  // the script position (scripted, observed through the next real tie).
  const std::vector<std::size_t> tied3 = {10, 20, 30};
  for (const TiePolicy policy : kPolicies) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{1000}}) {
      PolicyCase bulk(policy, 5);
      PolicyCase single(policy, 5);
      // A real tie first, so neither side starts from a pristine state.
      ASSERT_EQ(bulk.ties.choose_among(tied3), single.ties.choose_among(tied3));
#if HCSCHED_TRACE
      const auto before_bulk = hcsched::obs::counters::snapshot();
#endif
      bulk.ties.account_unique(k);
#if HCSCHED_TRACE
      const auto before_single = hcsched::obs::counters::snapshot();
#endif
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t only[] = {i};
        ASSERT_EQ(single.ties.choose_among(only), i);
      }
#if HCSCHED_TRACE
      const auto after = hcsched::obs::counters::snapshot();
      const auto bulk_delta = before_single.delta_since(before_bulk);
      const auto single_delta = after.delta_since(before_single);
      using hcsched::obs::Counter;
      EXPECT_EQ(bulk_delta[Counter::kTieDecisions], k);
      EXPECT_EQ(single_delta[Counter::kTieDecisions], k);
      EXPECT_EQ(bulk_delta[Counter::kTieEvents], 0u);
      EXPECT_EQ(single_delta[Counter::kTieEvents], 0u);
#endif
      const std::string what = "policy " +
                               std::to_string(static_cast<int>(policy)) +
                               " k " + std::to_string(k);
      EXPECT_EQ(bulk.ties.decisions(), single.ties.decisions()) << what;
      EXPECT_EQ(bulk.ties.decisions(), k + 1) << what;
      EXPECT_EQ(bulk.ties.tie_events(), single.ties.tie_events()) << what;
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(bulk.ties.choose_among(tied3),
                  single.ties.choose_among(tied3))
            << what << " tie " << i;
      }
      EXPECT_EQ(bulk.rng.next_u64(), single.rng.next_u64()) << what;
    }
  }
}

// ------------------------------------------------------------ TieBreakerFold
//
// choose_min / choose_max run the packed passes of rng/fold4.hpp, the same
// ones the fastpath kernels use, so the reference-vs-kernel differential
// suite no longer checks either against independent code. This suite does:
// every length from 1 to 70 (every lane, accumulator, single-vector step and
// tail length holds the extreme somewhere), every policy, against
// OracleTieBreaker.

constexpr std::size_t kFoldMaxLen = 70;

/// One subject TieBreaker and its oracle twin under the same policy, random
/// ones drawing from equally-seeded RNGs.
struct FoldPair {
  FoldPair(TiePolicy policy, std::uint64_t seed)
      : subject(policy, seed), twin_rng(seed), twin(policy, twin_rng, seed) {}

  /// Runs choose_min and choose_max on `scores` through both and checks
  /// the chosen indices agree.
  void check(const std::vector<double>& scores, const std::string& where) {
    for (const bool largest : {false, true}) check_one(scores, largest, where);
  }

  /// The same for choose_max (largest) or choose_min alone.
  void check_one(const std::vector<double>& scores, bool largest,
                 const std::string& where) {
    const std::size_t got = largest ? subject.ties.choose_max(scores)
                                    : subject.ties.choose_min(scores);
    const std::size_t want = twin.choose(scores, largest);
    ASSERT_EQ(got, want) << where << (largest ? " choose_max" : " choose_min")
                         << " n=" << scores.size();
  }

  /// Counts and, for the random policy, the RNG streams left behind.
  void check_state(const std::string& where) {
    EXPECT_EQ(subject.ties.decisions(), twin.decisions) << where;
    EXPECT_EQ(subject.ties.tie_events(), twin.tie_events) << where;
    EXPECT_EQ(subject.rng.next_u64(), twin_rng.next_u64()) << where;
  }

  PolicyCase subject;
  Rng twin_rng;
  OracleTieBreaker twin;
};

/// Runs `body(pair, where)` for every policy, then compares the pair's
/// counts and RNG streams. Stops at the first failing pair, so a broken
/// subject is reported once instead of once per row.
template <typename Body>
void for_each_fold_pair(std::uint64_t seed, Body body) {
  for (const TiePolicy policy : kPolicies) {
    FoldPair pair(policy, seed);
    const std::string where =
        "policy " + std::to_string(static_cast<int>(policy));
    body(pair, where);
    pair.check_state(where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TieBreakerFold, RandomRowsMatchOracle) {
  for_each_fold_pair(11, [](FoldPair& pair, const std::string& where) {
    Rng gen(101);
    for (std::size_t n = 1; n <= kFoldMaxLen; ++n) {
      for (int rep = 0; rep < 4; ++rep) {
        std::vector<double> row(n);
        for (double& v : row) v = gen.uniform(0.0, 100.0);
        pair.check(row, where);
      }
    }
  });
}

TEST(TieBreakerFold, AllEqualRowsMatchOracle) {
  // Every entry ties: the whole row is the tied set, so every policy draws
  // and the find pass walks to the drawn member.
  for_each_fold_pair(12, [](FoldPair& pair, const std::string& where) {
    for (std::size_t n = 1; n <= kFoldMaxLen; ++n) {
      pair.check(std::vector<double>(n, 7.25), where);
      pair.check(std::vector<double>(n, 0.0), where);
    }
  });
}

TEST(TieBreakerFold, TieRichRowsMatchOracle) {
  // Small integers make exact ties the norm; 1e-10 jitter on some cells
  // makes near values that must not tie, and a few -0.0 / +0.0 pairs probe
  // the one difference the four-lane fold may make (a zero's sign).
  for_each_fold_pair(13, [](FoldPair& pair, const std::string& where) {
    Rng gen(103);
    for (std::size_t n = 1; n <= kFoldMaxLen; ++n) {
      for (int rep = 0; rep < 6; ++rep) {
        std::vector<double> row(n);
        for (double& v : row) {
          v = static_cast<double>(gen.below(4));
          if (gen.chance(0.2)) v += 1e-10;
          if (v == 0.0 && gen.chance(0.5)) v = -0.0;
        }
        pair.check(row, where);
      }
    }
  });
}

TEST(TieBreakerFold, ExtremeAtEveryIndexMatchesOracle) {
  // A unique minimum (then a unique maximum) at every index of every length
  // puts the extreme in each of the four lanes and in every tail position;
  // a second copy of it later in the row makes the same spot the first of
  // a genuine tie.
  for_each_fold_pair(14, [](FoldPair& pair, const std::string& where) {
    Rng gen(107);
    for (std::size_t n = 1; n <= kFoldMaxLen; ++n) {
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<double> row(n);
        for (double& v : row) v = gen.uniform(10.0, 90.0);
        for (const double extreme : {1.0, 99.0}) {
          std::vector<double> probe = row;
          probe[at] = extreme;
          pair.check(probe, where + " extreme at " + std::to_string(at));
          if (at + 1 < n) {
            probe[n - 1] = extreme;
            pair.check(probe, where + " tied extreme at " +
                                  std::to_string(at));
          }
        }
      }
    }
  });
}

TEST(TieBreakerFold, TiedPairAtEveryIndexPairMatchesOracle) {
  // The extreme at every index and a partner at every other index: an exact
  // copy (a genuine tie) or a copy 0.5e-9 away (a near value that must not
  // tie: the second best that the gap test reads).
  // Whatever lane, accumulator, loop or tail each lands in, the pair alone
  // decides the tied set.
  for_each_fold_pair(15, [](FoldPair& pair, const std::string& where) {
    Rng gen(109);
    for (std::size_t n = 1; n <= kFoldMaxLen; ++n) {
      std::vector<double> row(n);
      for (double& v : row) v = gen.uniform(10.0, 90.0);
      for (std::size_t at = 0; at < n; ++at) {
        for (const double extreme : {1.0, 99.0}) {
          std::vector<double> probe = row;
          probe[at] = extreme;
          for (std::size_t partner = 0; partner < n; ++partner) {
            if (partner == at) continue;
            for (const double offset : {0.0, 0.5e-9}) {
              const bool largest = extreme != 1.0;
              probe[partner] = largest ? extreme - offset : extreme + offset;
              pair.check_one(probe, largest, where);
            }
            probe[partner] = row[partner];
            if (::testing::Test::HasFailure()) {
              ADD_FAILURE() << "n " << n << " at " << at << " partner "
                            << partner;
              return;
            }
          }
        }
      }
    }
  });
}

TEST(TieBreakerFold, InfiniteRowsMatchOracle) {
  // A row of +inf (or -inf) ties every entry, since a tie is exact
  // equality; +inf at every index of a finite row is a unique
  // maximum that no minimum may pick.
  for_each_fold_pair(16, [](FoldPair& pair, const std::string& where) {
    Rng gen(113);
    for (std::size_t n = 1; n <= kFoldMaxLen; ++n) {
      pair.check(std::vector<double>(n, kInf), where + " all +inf");
      pair.check(std::vector<double>(n, -kInf), where + " all -inf");
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<double> row(n);
        for (double& v : row) v = gen.uniform(10.0, 90.0);
        row[at] = kInf;
        pair.check(row, where + " +inf at " + std::to_string(at));
      }
    }
  });
}

}  // namespace
