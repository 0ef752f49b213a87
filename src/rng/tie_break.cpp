#include "rng/tie_break.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "obs/counters.hpp"
#include "rng/fold4.hpp"

namespace hcsched::rng {

// The best two scores are the values a sequential chain returns, up to the
// sign of a zero, which == cannot see. When the second differs from the
// best, the best is unique: a singleton draw. Otherwise one packed pass
// counts the tied set and finds its first member, for the draw(count) a
// collected list would take.
template <bool kLargest>
std::size_t TieBreaker::choose_extreme(std::span<const double> scores) {
  if (scores.empty()) return npos;
  HCSCHED_PRECONDITION(std::none_of(scores.begin(), scores.end(),
                                    [](double s) { return std::isnan(s); }),
                       "TieBreaker: NaN score");
  ++decisions_;
  const Scores x{scores.data()};
  const std::size_t n = scores.size();
  const Two<double> two = best_two<kLargest>(x, n);
  if (two.second != two.best) {
    draw(1);
    return find_first(x, n, two.best);
  }
  std::size_t count = 0;
  std::size_t first = n;
  for_each_tied(x, n, two.best, [&](std::size_t i) {
    if (count++ == 0) first = i;
  });
  std::size_t k = draw(count);
  for (std::size_t i = first;; ++i) {
    if (scores[i] == two.best && k-- == 0) return i;
  }
}

std::size_t TieBreaker::choose_min(std::span<const double> scores) {
  return choose_extreme<false>(scores);
}

std::size_t TieBreaker::choose_max(std::span<const double> scores) {
  return choose_extreme<true>(scores);
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
