#include "rng/tie_break.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "rng/fold4.hpp"

namespace hcsched::rng {

// The extreme comes from the four-lane fold the fastpath kernels use. min
// and max are associative and commutative over the finite, non-negative
// scores every Problem guarantees (no NaN can reach a score), so the fold
// returns the value a sequential std::min / std::max chain returns; only the
// sign of a zero result can differ, and |best - s| cannot see it. The tied
// set, and so the chosen index, cannot move.
std::size_t TieBreaker::choose_min(std::span<const double> scores) {
  if (scores.empty()) return npos;
  return choose_tied(
      scores, fold4(scores.size(), [&](std::size_t i) { return scores[i]; },
                    kFoldMin));
}

std::size_t TieBreaker::choose_max(std::span<const double> scores) {
  if (scores.empty()) return npos;
  return choose_tied(
      scores, fold4(scores.size(), [&](std::size_t i) { return scores[i]; },
                    kFoldMax));
}

std::size_t TieBreaker::choose_tied(std::span<const double> scores,
                                    double best) {
  // One pass counts the tied set and remembers its first member (walking
  // backwards, the last tied index seen is the lowest); the draw is the
  // same draw(count) a collected list of tied indices would take. The find
  // starts at that first member, so it returns at once unless a genuine tie
  // drew a later one. No allocation.
  ++decisions_;
  std::size_t count = 0;
  std::size_t first = 0;
  for (std::size_t i = scores.size(); i-- > 0;) {
    const bool hit = tied(best, scores[i]);
    count += hit ? 1u : 0u;
    first = hit ? i : first;
  }
  std::size_t k = draw(count);
  if (k == npos) return npos;
  for (std::size_t i = first;; ++i) {
    if (tied(best, scores[i]) && k-- == 0) return i;
  }
}

std::size_t TieBreaker::choose_among(std::span<const std::size_t> tied_set) {
  if (tied_set.empty()) return npos;
  ++decisions_;
  return tied_set[draw(tied_set.size())];
}

void TieBreaker::account_unique(std::size_t k) noexcept {
  decisions_ += k;
  HCSCHED_COUNT(obs::Counter::kTieDecisions, k);
}

std::size_t TieBreaker::draw(std::size_t count) {
  HCSCHED_COUNT(obs::Counter::kTieDecisions);
  if (count == 0) return npos;
  if (count == 1) return 0;
  ++tie_events_;
  HCSCHED_COUNT(obs::Counter::kTieEvents);
  switch (policy_) {
    case TiePolicy::kDeterministic:
      return 0;
    case TiePolicy::kRandom:
      return static_cast<std::size_t>(rng_->below(count));
    case TiePolicy::kScripted: {
      std::size_t pick = 0;
      if (script_pos_ < script_.size()) pick = script_[script_pos_++];
      return std::min(pick, count - 1);
    }
  }
  return 0;
}

}  // namespace hcsched::rng
