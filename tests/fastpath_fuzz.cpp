// fastpath_fuzz — deterministic seed-sweep runner for the fast-path
// differential harness.
//
// Replays run_differential_case (the exact checks the unit suite in
// tests/test_fastpath_differential.cpp pins) over a contiguous seed range,
// deriving every case knob — size, consistency class, tie policy, subset
// shape — from the seed itself. The heuristic under test is a row of the
// fastpath dispatch table (fastpath.hpp kernel_table()): the sweep
// enumerates EVERY table row under every tie policy, plus subset cases and
// whole-minimizer iterative cases, so registering a new kernel widens the
// fuzz matrix without touching this file. CI runs a bounded smoke sweep on
// every push (ctest: fastpath_fuzz_smoke) and a wide sweep nightly through
// --seeds; the sweep is deterministic and a divergence prints the full
// case, which plugs straight back into the unit suite.
//
// Each seed also runs the cell-source property (cell_source_divergence):
// the reference loops and the kernels read the same ETC rows, so this is
// the check that keeps those reads tied to the bounds-checked
// EtcMatrix::at. Its count is the second summary line.
//
// Usage: fastpath_fuzz [--seeds N]
//   --seeds N   number of seeds to sweep, 1..N (default 256; cases per
//               seed = 3 x kernel_table().size() + 4)
// Exit code: 0 when every case is equivalent, 1 on divergence, 2 on usage.
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>

#include "differential.hpp"
#include "etc/consistency.hpp"
#include "rng/rng.hpp"
#include "rng/tie_break.hpp"
#include "seed_count.hpp"

namespace {

namespace fastpath = hcsched::heuristics::fastpath;

/// Case variations per seed: every dispatch-table kernel under every tie
/// policy on the full problem, plus a deterministic and a random subset
/// case and a deterministic and a random iterative (whole-minimizer) case,
/// each on a table-derived kernel.
std::size_t cases_per_seed() {
  return 3 * fastpath::kernel_table().size() + 4;
}

fastpath::DifferentialCase derive_case(std::uint64_t seed,
                                       std::size_t variation) {
  // Size/shape knobs come from a generator seeded by the sweep seed, so the
  // sweep covers a spread of dimensions and CVB heterogeneity no fixed grid
  // would; the case seed stays equal to the sweep seed for repro lines.
  hcsched::rng::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const auto table = fastpath::kernel_table();
  fastpath::DifferentialCase c;
  c.seed = seed;
  c.tasks = 4 + static_cast<std::size_t>(rng.below(93));    // 4..96
  c.machines = 2 + static_cast<std::size_t>(rng.below(15)); // 2..16
  constexpr hcsched::etc::Consistency kClasses[] = {
      hcsched::etc::Consistency::kConsistent,
      hcsched::etc::Consistency::kSemiConsistent,
      hcsched::etc::Consistency::kInconsistent,
  };
  c.consistency = kClasses[rng.below(3)];
  // Seeds 0 (mod 4) round the cells to small integers, which manufactures
  // exact ties in every phase; seeds 2 (mod 4) add sub-1e-9 offsets to those
  // integers, so exact ties sit among near-tie chains that must not tie.
  // The odd seeds stay in the well-separated regime.
  if (seed % 2 == 0) {
    c.mean_task_time = 3.0;
    c.v_task = 0.3;
    c.v_machine = 0.3;
    c.integer_cells = true;
    c.near_tie_offsets = seed % 4 == 2;
  }
  const std::size_t full_grid = 3 * table.size();
  if (variation < full_grid) {
    c.kernel = table[variation / 3].kernel;
    c.policy = static_cast<hcsched::rng::TiePolicy>(variation % 3);
    return c;
  }
  // Subset and iterative variations pick their kernel from the seed stream
  // so the whole table is exercised across a sweep.
  c.kernel = table[rng.below(table.size())].kernel;
  switch (variation - full_grid) {
    case 0:
      c.subset = true;
      break;
    case 1:
      c.subset = true;
      c.policy = hcsched::rng::TiePolicy::kRandom;
      break;
    case 2:
      c.iterative = true;
      break;
    default:
      c.iterative = true;
      c.policy = hcsched::rng::TiePolicy::kRandom;
      break;
  }
  if (c.iterative) {
    // A whole-minimizer case runs up to `machines` full mappings per path;
    // bound the shape so the sweep rate stays dominated by mapping cases.
    c.tasks = 8 + c.tasks % 41;   // 8..48
    c.machines = 2 + c.machines % 9;  // 2..10
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto count = arg == "--seeds" && i + 1 < argc
                           ? hcsched::testing::parse_seed_count(argv[++i])
                           : std::nullopt;
    if (!count) {
      std::cerr << "usage: fastpath_fuzz [--seeds N]\n";
      return 2;
    }
    seeds = *count;
  }

  std::size_t cases = 0;
  std::size_t divergences = 0;
  std::size_t cell_divergences = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const std::string cells = fastpath::cell_source_divergence(seed);
    if (!cells.empty()) {
      ++cell_divergences;
      std::cout << "DIVERGENCE " << cells << "\n";
    }
    for (std::size_t variation = 0; variation < cases_per_seed();
         ++variation) {
      const fastpath::DifferentialCase c = derive_case(seed, variation);
      const fastpath::DifferentialOutcome outcome =
          fastpath::run_differential_case(c);
      ++cases;
      if (!outcome.equivalent) {
        ++divergences;
        std::cout << "DIVERGENCE " << fastpath::describe(c) << ": "
                  << outcome.divergence << "\n";
      }
    }
  }
  std::cout << "fastpath_fuzz: " << cases << " cases over " << seeds
            << " seeds, " << divergences << " divergence"
            << (divergences == 1 ? "" : "s") << "\n";
  std::cout << "fastpath_fuzz: cell sources along " << seeds
            << " removal sequences, " << cell_divergences << " divergence"
            << (cell_divergences == 1 ? "" : "s") << "\n";
  return divergences == 0 && cell_divergences == 0 ? 0 : 1;
}
