// Direct tests of the fastpath row scan (minscan.hpp) against naive
// references: a sequential std::min fold for its minimum and a two-pass
// scan for the Sufferage best-two and tied list. Every length from 1 to 70
// is covered, and the extreme (and a tied or near-tied partner) sits at
// every index: in every packed lane, in each of the four accumulators, in
// the single-vector loop and in the scalar tail, at any lane width up to 8.
//
// covers: minscan.cpp
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "heuristics/fastpath/minscan.hpp"
#include "rng/rng.hpp"

namespace {

namespace minscan = hcsched::heuristics::fastpath::minscan;
using hcsched::rng::Rng;

constexpr std::size_t kMaxLen = 70;

std::vector<double> random_row(Rng& rng, std::size_t n) {
  std::vector<double> row(n);
  for (double& v : row) v = rng.uniform(1.0, 100.0);
  return row;
}

double seq_min_completion(const std::vector<double>& ready,
                          const std::vector<double>& etc) {
  double best = ready[0] + etc[0];
  for (std::size_t i = 1; i < ready.size(); ++i) {
    best = std::min(best, ready[i] + etc[i]);
  }
  return best;
}

/// The scan's minimum (what the two-phase kernel's rescore reads).
double scan_min(const std::vector<double>& ready,
                const std::vector<double>& etc) {
  std::vector<std::size_t> tied(ready.size());
  return minscan::sufferage_scan(ready.data(), etc.data(), ready.size(),
                                 tied.data())
      .min1;
}

void expect_plain_scans_match(const std::vector<double>& ready,
                              const std::vector<double>& etc) {
  EXPECT_EQ(scan_min(ready, etc), seq_min_completion(ready, etc))
      << "n=" << ready.size();
}

TEST(Minscan, PlainScansMatchSequentialFoldOnRandomRows) {
  Rng rng(18);
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      expect_plain_scans_match(random_row(rng, n), random_row(rng, n));
    }
  }
}

TEST(Minscan, PlainScansMatchSequentialFoldOnAllEqualRows) {
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    expect_plain_scans_match(std::vector<double>(n, 2.5),
                             std::vector<double>(n, 4.0));
  }
}

// The extreme value sits at every position in turn: each packed lane and
// accumulator, the single-vector loop and every slot of the scalar tail.
TEST(Minscan, PlainScansFindTheExtremeInEveryLaneAndTheTail) {
  Rng rng(7);
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<double> ready = random_row(rng, n);
      std::vector<double> etc = random_row(rng, n);
      etc[at] = 0.25;  // ready + etc >= 1 elsewhere
      ready[at] = 0.5;
      EXPECT_EQ(scan_min(ready, etc), 0.75) << "n=" << n << " at=" << at;
      expect_plain_scans_match(ready, etc);
    }
  }
}

/// Two-pass reference for sufferage_scan: the minimum and its first slot,
/// then the minimum over every other slot, then the ascending tied list.
struct NaiveScan {
  double min1 = 0.0;
  double min2 = 0.0;
  std::size_t min1_slot = 0;
  std::vector<std::size_t> tied{};
};

NaiveScan naive_scan(const std::vector<double>& x) {
  NaiveScan out;
  out.min1 = x[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] < out.min1) {
      out.min1 = x[i];
      out.min1_slot = i;
    }
  }
  out.min2 = x.size() == 1 ? out.min1
                           : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i != out.min1_slot) out.min2 = std::min(out.min2, x[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == out.min1) out.tied.push_back(i);
  }
  return out;
}

void expect_sufferage_matches(const std::vector<double>& ready,
                              const std::vector<double>& etc) {
  const std::size_t n = ready.size();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = ready[i] + etc[i];
  const NaiveScan want = naive_scan(x);
  std::vector<std::size_t> tied(n, n);
  const minscan::SufferageScan got =
      minscan::sufferage_scan(ready.data(), etc.data(), n, tied.data());
  EXPECT_EQ(got.min1, want.min1) << "n=" << n;
  EXPECT_EQ(got.min1_slot, want.min1_slot) << "n=" << n;
  EXPECT_EQ(got.min2, want.min2) << "n=" << n;
  tied.resize(got.tied_count);
  EXPECT_EQ(tied, want.tied) << "n=" << n;
}

TEST(Minscan, SufferageScanMatchesTwoPassReferenceOnRandomRows) {
  Rng rng(2007);
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto ready = random_row(rng, n);
      const auto etc = random_row(rng, n);
      expect_sufferage_matches(ready, etc);
    }
  }
}

// A duplicated minimum: min2 must equal min1 (multiplicity counts), and
// min1_slot is the first attaining slot.
TEST(Minscan, SufferageScanDuplicatedMinimumGivesEqualSecond) {
  Rng rng(11);
  for (std::size_t n = 2; n <= kMaxLen; ++n) {
    for (std::size_t first = 0; first + 1 < n; ++first) {
      const std::size_t dup = first + 1 + rng.below(n - first - 1);
      std::vector<double> ready = random_row(rng, n);
      std::vector<double> etc(n, 0.0);
      ready[first] = 0.5;
      ready[dup] = 0.5;
      std::vector<std::size_t> tied(n);
      const minscan::SufferageScan got =
          minscan::sufferage_scan(ready.data(), etc.data(), n, tied.data());
      EXPECT_EQ(got.min1, 0.5);
      EXPECT_EQ(got.min2, got.min1) << "n=" << n;
      EXPECT_EQ(got.min1_slot, first) << "n=" << n;
      expect_sufferage_matches(ready, etc);
    }
  }
}

// Integer rows manufacture exact ties everywhere: the first attaining slot,
// a second best equal to the minimum and the full tied list.
TEST(Minscan, SufferageScanMatchesReferenceOnIntegerRows) {
  Rng rng(5);
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> ready(n);
      std::vector<double> etc(n);
      for (std::size_t i = 0; i < n; ++i) {
        ready[i] = static_cast<double>(rng.below(4));
        etc[i] = static_cast<double>(1 + rng.below(4));
      }
      expect_sufferage_matches(ready, etc);
    }
  }
}

// Distinct scores 0.5e-9 apart, the minimum rotating through the lanes:
// only the minimum is tied, however close its neighbours sit.
TEST(Minscan, SufferageScanNearValuesDoNotTie) {
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    std::vector<double> ready(n);
    const std::vector<double> etc(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      ready[i] = 10.0 + 0.5e-9 * static_cast<double>((i + n / 2) % n);
    }
    expect_sufferage_matches(ready, etc);

    std::vector<std::size_t> tied(n);
    const minscan::SufferageScan exact =
        minscan::sufferage_scan(ready.data(), etc.data(), n, tied.data());
    EXPECT_EQ(exact.tied_count, 1u) << "n=" << n;
  }
}

// The minimum at every index, then a partner at every other index: an
// exact copy (a tied pair, min2 == min1) and a copy 0.5e-9 above it (the
// second best, a near value that must not tie). Every other score is above
// 11, so the pair alone decides min1, min1_slot, min2 and the tied list,
// wherever the two land among lanes, accumulators, loop and tail.
TEST(Minscan, SufferageScanPlacesExtremeAndTiedPairInEveryLane) {
  Rng rng(26);
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    const std::vector<double> etc(n, 0.0);
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<double> ready = random_row(rng, n);
      for (double& v : ready) v += 10.0;
      ready[at] = 5.0;
      expect_sufferage_matches(ready, etc);
      for (std::size_t partner = 0; partner < n; ++partner) {
        if (partner == at) continue;
        const double kept = ready[partner];
        for (const double offset : {0.0, 0.5e-9}) {
          ready[partner] = 5.0 + offset;
          expect_sufferage_matches(ready, etc);
        }
        ready[partner] = kept;
        if (::testing::Test::HasFailure()) {
          FAIL() << "n=" << n << " at=" << at << " partner=" << partner;
        }
      }
    }
  }
}

}  // namespace
