// The row reductions behind minscan.hpp: one portable body each.
#include "heuristics/fastpath/minscan.hpp"

#include <algorithm>
#include <limits>

namespace hcsched::heuristics::fastpath::minscan {

namespace {

// Folds pick over at(0) .. at(n - 1) in four independent accumulators: lane
// j takes the indices i = j (mod 4), the lanes combine at the end and a
// scalar tail covers n mod 4. The four chains overlap in the pipeline where
// one running fold would wait on every compare. IEEE min and max over
// non-NaN values are associative, commutative and idempotent, so the order,
// and seeding every lane with at(0), change no result beyond the sign of a
// zero.
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

constexpr auto kMin = [](double a, double b) { return std::min(a, b); };
constexpr auto kMax = [](double a, double b) { return std::max(a, b); };

}  // namespace

double min_completion(const double* ready, const double* etc,
                      std::size_t n) noexcept {
  return fold4(n, [=](std::size_t i) { return ready[i] + etc[i]; }, kMin);
}

double min_value(const double* v, std::size_t n) noexcept {
  return fold4(n, [=](std::size_t i) { return v[i]; }, kMin);
}

double max_value(const double* v, std::size_t n) noexcept {
  return fold4(n, [=](std::size_t i) { return v[i]; }, kMax);
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
