// The row scan behind minscan.hpp, on the packed folds of rng/fold4.hpp.
#include "heuristics/fastpath/minscan.hpp"

#include <string>

#include "rng/fold4.hpp"

namespace hcsched::heuristics::fastpath::minscan {

SufferageScan sufferage_scan(const double* ready, const double* etc,
                             std::size_t n, std::size_t* tied) noexcept {
  const rng::Completions x{ready, etc};
  const rng::Two<double> low = rng::best_two<false>(x, n);
  const std::size_t slot = rng::find_first(x, n, low.best);
  // Gap shortcut: when min2 differs from min1 the minimum is unique (n == 1
  // lands here too: min2 is +inf).
  std::size_t count = 0;
  if (low.second != low.best) {
    tied[count++] = slot;
  } else {
    rng::for_each_tied(x, n, low.best,
                       [&](std::size_t i) { tied[count++] = i; });
  }
  return SufferageScan{low.best, n == 1 ? low.best : low.second, slot, count};
}

const char* active_lanes() noexcept {
  static const std::string name = "simd" + std::to_string(rng::kLanes);
  return name.c_str();
}

}  // namespace hcsched::heuristics::fastpath::minscan
