// The fastpath kernels' row scan over the completion times ready[i] +
// etc[i] of one contiguous EtcView row, on the packed passes of
// rng/fold4.hpp that TieBreaker::choose_min / choose_max run too. All ETC
// cells are finite and non-negative; docs/FASTPATH.md states why the scan
// equals a sequential one at every lane width. tests/test_minscan.cpp and
// the TieBreakerFold suite (tests/test_tie_break.cpp) check it against
// sequential scans that share no code with it.
#pragma once

#include <cstddef>

namespace hcsched::heuristics::fastpath::minscan {

/// Result of sufferage_scan over the scores x[i] = ready[i] + etc[i].
struct SufferageScan {
  double min1;             ///< exact minimum score
  double min2;             ///< min over i != min1_slot (== min1 when n == 1)
  std::size_t min1_slot;   ///< FIRST slot attaining min1
  std::size_t tied_count;  ///< slots written to `tied`
};

/// The kernels' row scan: exact minimum with its first attaining slot (the
/// index the reference's strict-< fold tracks), the minimum over the
/// remaining slots (Sufferage's "second best" with multiplicity — a
/// duplicated minimum yields min2 == min1), and the ascending list of slots
/// whose score equals min1, written to `tied` (capacity n). The two-phase
/// kernel reads the tied list, Sufferage all of it. n must be >= 1.
SufferageScan sufferage_scan(const double* ready, const double* etc,
                             std::size_t n, std::size_t* tied) noexcept;

/// The compiled scan width for result fingerprints, e.g. "simd2".
const char* active_lanes() noexcept;

}  // namespace hcsched::heuristics::fastpath::minscan
