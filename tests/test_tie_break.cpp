#include "rng/tie_break.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

/// The pre-allocation-free choose_min/choose_max, built the obvious way:
/// collect the tied indices into a vector, then pick one under the policy.
/// Tracks its own decision/tie-event counts and script position.
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
      const double d = best - scores[i];
      if ((d < 0 ? -d : d) <= TieBreaker::kDefaultEpsilon) tied.push_back(i);
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

TEST(TieBreaker, EpsilonGroupsNearTies) {
  TieBreaker coarse(std::vector<std::size_t>{}, /*epsilon=*/0.1);
  const std::vector<double> scores = {1.05, 1.0, 2.0};
  // 1.05 ties 1.0 within 0.1; scripted-exhausted policy picks first tied.
  EXPECT_EQ(coarse.choose_min(scores), 0u);
  EXPECT_EQ(coarse.tie_events(), 1u);

  TieBreaker fine;  // epsilon 1e-9
  EXPECT_EQ(fine.choose_min(scores), 1u);
  EXPECT_EQ(fine.tie_events(), 0u);
}

TEST(TieBreaker, TiedPredicate) {
  TieBreaker tb;
  EXPECT_TRUE(tb.tied(1.0, 1.0));
  EXPECT_TRUE(tb.tied(1.0, 1.0 + 1e-10));
  EXPECT_FALSE(tb.tied(1.0, 1.001));
}

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
  TieBreaker rnd(rng, 0.5);
  EXPECT_EQ(rnd.policy(), TiePolicy::kRandom);
  EXPECT_DOUBLE_EQ(rnd.epsilon(), 0.5);
  TieBreaker scripted(std::vector<std::size_t>{1});
  EXPECT_EQ(scripted.policy(), TiePolicy::kScripted);
}

TEST(TieBreaker, ChooseMinMaxMatchTiedVectorOracle) {
  // Random score vectors drawn from a handful of values (so exact ties are
  // the norm, not the exception) plus sub-epsilon jitter on some cells: the
  // allocation-free count-then-locate pick must equal the collect-then-pick
  // oracle's, and so must the counts and the RNG stream left behind.
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

}  // namespace
