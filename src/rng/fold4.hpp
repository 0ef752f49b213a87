// The four-lane min/max fold shared by TieBreaker::choose_min/choose_max
// and the fastpath row scans (heuristics/fastpath/minscan.hpp).
//
// It lives in rng/ because that is the lowest layer both TieBreaker and the
// heuristics may include; it depends on nothing but <algorithm>.
#pragma once

#include <algorithm>
#include <cstddef>

namespace hcsched::rng {

/// Folds pick over at(0) .. at(n - 1) in four independent accumulators: lane
/// j takes the indices i = j (mod 4), the lanes combine at the end and a
/// scalar tail covers n mod 4. The four chains overlap in the pipeline where
/// one running fold would wait on every compare. IEEE min and max over
/// non-NaN values are associative, commutative and idempotent, so the order,
/// and seeding every lane with at(0), change no result beyond the sign of a
/// zero. n must be >= 1.
template <typename At, typename Pick>
double fold4(std::size_t n, At at, Pick pick) noexcept {
  double a0 = at(0);
  double a1 = a0;
  double a2 = a0;
  double a3 = a0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 = pick(a0, at(i));
    a1 = pick(a1, at(i + 1));
    a2 = pick(a2, at(i + 2));
    a3 = pick(a3, at(i + 3));
  }
  double best = pick(pick(a0, a1), pick(a2, a3));
  for (; i < n; ++i) best = pick(best, at(i));
  return best;
}

inline constexpr auto kFoldMin = [](double a, double b) {
  return std::min(a, b);
};
inline constexpr auto kFoldMax = [](double a, double b) {
  return std::max(a, b);
};

}  // namespace hcsched::rng
