#include "rng/tie_break.hpp"

#include <algorithm>

#include "obs/counters.hpp"

namespace hcsched::rng {

std::size_t TieBreaker::choose_min(std::span<const double> scores) {
  if (scores.empty()) return npos;
  double best = scores[0];
  for (double s : scores) best = std::min(best, s);
  return choose_tied(scores, best);
}

std::size_t TieBreaker::choose_max(std::span<const double> scores) {
  if (scores.empty()) return npos;
  double best = scores[0];
  for (double s : scores) best = std::max(best, s);
  return choose_tied(scores, best);
}

std::size_t TieBreaker::choose_tied(std::span<const double> scores,
                                    double best) {
  // Two passes instead of a buffer of tied indices: count the tied set,
  // draw the k-th member's rank, then find it. Same draw, no allocation.
  ++decisions_;
  std::size_t count = 0;
  for (double s : scores) count += tied(best, s) ? 1u : 0u;
  std::size_t k = draw(count);
  if (k == npos) return npos;
  for (std::size_t i = 0;; ++i) {
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
