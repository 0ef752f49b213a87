// Min scan primitives for the fastpath kernels.
//
// The fused completion-time scan, min of ready[i] + etc[i] over contiguous
// doubles, runs on rng::fold4 (rng/fold4.hpp), the four-accumulator fold
// that TieBreaker::choose_min / choose_max use too, so the kernels and the
// reference loops share one fold body. IEEE min is associative and
// commutative for non-NaN inputs, so that order returns a value equal to a
// sequential std::min fold (only the sign of a zero result may differ,
// which no kernel comparison can see). All ETC cells are finite and
// non-negative; docs/FASTPATH.md states the argument. tests/test_minscan.cpp
// (these scans) and the TieBreakerFold suite in tests/test_tie_break.cpp
// (the decisions) check the fold against sequential folds that share no
// code with it.
#pragma once

#include <cstddef>

namespace hcsched::heuristics::fastpath::minscan {

/// min over i in [0, n) of ready[i] + etc[i]. n must be >= 1.
double min_completion(const double* ready, const double* etc,
                      std::size_t n) noexcept;

/// Result of sufferage_scan over the scores x[i] = ready[i] + etc[i].
struct SufferageScan {
  double min1;             ///< exact minimum score
  double min2;             ///< min over i != min1_slot (== min1 when n == 1)
  std::size_t min1_slot;   ///< FIRST slot attaining min1
  std::size_t tied_count;  ///< slots written to `tied`
};

/// Fused single-call Sufferage row scan: exact minimum with its first
/// attaining slot, the minimum over the remaining slots (the reference's
/// "second best" with multiplicity — a duplicated minimum yields
/// min2 == min1), and the ascending list of epsilon-tied slots written to
/// `tied` (capacity n).
///
/// The tie predicate is (x[i] - min1) <= eps, bit-identical to
/// TieBreaker::tied(min1, x[i]) = |min1 - x[i]| <= eps because min1 is the
/// exact minimum (so x[i] - min1 >= 0 holds for the rounded difference too:
/// rounding is monotone and IEEE negation is exact). min1_slot is the first
/// attaining slot — the same index the reference's strict-< fold tracks.
/// n must be >= 1; eps must be non-negative.
SufferageScan sufferage_scan(const double* ready, const double* etc,
                             std::size_t n, double eps,
                             std::size_t* tied) noexcept;

/// Names the scan implementation for result fingerprints: always "scalar".
const char* active_lanes() noexcept;

}  // namespace hcsched::heuristics::fastpath::minscan
