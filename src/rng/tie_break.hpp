// Tie-breaking policies (paper §2).
//
// A "tie" occurs when a heuristic must choose among candidates it scores as
// equally good. The paper studies two policies:
//   * Deterministic — always the same candidate (here: the first in the
//     canonical enumeration order, i.e. lowest task index then lowest
//     machine index), and
//   * Random — uniform over the tied set.
// A third policy, Scripted, replays a fixed sequence of choices; it is how
// the repo reproduces the paper's worked examples, where a *specific* random
// outcome is what makes the makespan increase.
//
// Two scores tie when they are equal (a == b): the relation is transitive
// and independent of the ETC values' scale, which the paper's invariance
// theorems (core/theorems.hpp) need, and an all-+inf row is one tied set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace hcsched::rng {

enum class TiePolicy : std::uint8_t { kDeterministic, kRandom, kScripted };

class TieBreaker {
 public:
  /// Deterministic tie-breaker.
  TieBreaker() noexcept : policy_(TiePolicy::kDeterministic) {}

  /// Random tie-breaker drawing from `rng` (not owned; must outlive this).
  explicit TieBreaker(Rng& rng) noexcept
      : policy_(TiePolicy::kRandom), rng_(&rng) {}

  /// Scripted tie-breaker: the i-th tie consumes script[i] as an index into
  /// the tied candidate list (clamped); once the script is exhausted the
  /// policy degrades to deterministic.
  explicit TieBreaker(std::vector<std::size_t> script) noexcept
      : policy_(TiePolicy::kScripted), script_(std::move(script)) {}

  TiePolicy policy() const noexcept { return policy_; }

  /// Index of the chosen minimal element of `scores` (empty input returns
  /// npos; a NaN score is a precondition violation).
  std::size_t choose_min(std::span<const double> scores);

  /// Index of the chosen maximal element of `scores`.
  std::size_t choose_max(std::span<const double> scores);

  /// Choose among an explicit tied set (indices into some caller structure).
  std::size_t choose_among(std::span<const std::size_t> tied);

  /// Records `k` decisions over singleton sets in O(1): the same counts as
  /// k choose_among calls on one-element sets, which never draw from the
  /// RNG or consume a script entry.
  void account_unique(std::size_t k) noexcept;

  /// Number of genuine ties (|tied set| > 1) resolved so far.
  std::size_t tie_events() const noexcept { return tie_events_; }

  /// Number of choose_* calls made so far (tied or not).
  std::size_t decisions() const noexcept { return decisions_; }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  /// Picks the index of the chosen candidate in [0, count) under the policy
  /// and does the decision's bookkeeping; count == 0 returns npos.
  std::size_t draw(std::size_t count);

  /// choose_min (kLargest false) / choose_max (true) body.
  template <bool kLargest>
  std::size_t choose_extreme(std::span<const double> scores);

  TiePolicy policy_;
  Rng* rng_ = nullptr;
  std::vector<std::size_t> script_{};
  std::size_t script_pos_ = 0;
  std::size_t tie_events_ = 0;
  std::size_t decisions_ = 0;
};

}  // namespace hcsched::rng
