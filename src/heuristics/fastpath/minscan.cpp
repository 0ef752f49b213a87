// The row reductions behind minscan.hpp: the completion-time scan on the
// shared four-lane fold (rng/fold4.hpp), plus the Sufferage best-two scan.
#include "heuristics/fastpath/minscan.hpp"

#include <limits>

#include "rng/fold4.hpp"

namespace hcsched::heuristics::fastpath::minscan {

double min_completion(const double* ready, const double* etc,
                      std::size_t n) noexcept {
  return rng::fold4(
      n, [=](std::size_t i) { return ready[i] + etc[i]; }, rng::kFoldMin);
}

// The classic strict-< best-two fold. `second` carries multiplicity (a
// duplicated minimum makes second == best).
SufferageScan sufferage_scan(const double* ready, const double* etc,
                             std::size_t n, double eps,
                             std::size_t* tied) noexcept {
  double best = ready[0] + etc[0];
  double second = std::numeric_limits<double>::infinity();
  std::size_t bslot = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const double x = ready[i] + etc[i];
    if (x < best) {
      second = best;
      best = x;
      bslot = i;
    } else if (x < second) {
      second = x;
    }
  }
  std::size_t tcount = 0;
  // Gap shortcut: every other slot's rounded (score - best) is at least the
  // rounded (second - best) — subtraction is monotone — so a gap beyond
  // epsilon proves the minimum slot is the only tied candidate. n == 1
  // lands here too (second stays +inf).
  if (second - best > eps) {
    tied[tcount++] = bslot;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (ready[i] + etc[i] - best <= eps) tied[tcount++] = i;
    }
  }
  return SufferageScan{best, n == 1 ? best : second, bslot, tcount};
}

const char* active_lanes() noexcept { return "scalar"; }

}  // namespace hcsched::heuristics::fastpath::minscan
