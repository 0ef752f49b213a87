// Property tests for the paper's theorems (§3.2-3.4) and the Genitor
// monotonicity claim (§3.1).
#include "core/theorems.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/paper_examples.hpp"
#include "core/witness.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/genitor.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/registry.hpp"

namespace {

using hcsched::core::check_mapping_invariance;
using hcsched::core::check_monotone_makespan;
using hcsched::core::IterativeMinimizer;
using hcsched::core::IterativeOptions;
using hcsched::core::verify_theorem;
using hcsched::etc::EtcMatrix;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;

EtcMatrix continuous_matrix(std::uint64_t seed, std::size_t tasks,
                            std::size_t machines) {
  Rng rng(seed);
  hcsched::etc::CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return hcsched::etc::CvbEtcGenerator(p).generate(rng);
}

/// Small-integer matrices deliberately provoke ties, exercising the
/// deterministic tie-breaking path of the theorems.
EtcMatrix tie_rich_matrix(std::uint64_t seed, std::size_t tasks,
                          std::size_t machines) {
  Rng rng(seed);
  EtcMatrix m(tasks, machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t j = 0; j < machines; ++j) {
      m.at(static_cast<int>(t), static_cast<int>(j)) =
          static_cast<double>(rng.between(1, 4));
    }
  }
  return m;
}

// The theorems: Min-Min, MCT and MET mappings are invariant across
// iterations under deterministic tie-breaking. Swept over both continuous
// (tie-free) and tie-rich integer matrices.
class TheoremTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(TheoremTest, MappingInvariantUnderDeterministicTies) {
  const auto& [name, seed] = GetParam();
  const auto heuristic = hcsched::heuristics::make_heuristic(name);
  {
    const EtcMatrix m =
        continuous_matrix(static_cast<std::uint64_t>(seed), 18, 5);
    const auto report = verify_theorem(*heuristic, Problem::full(m));
    EXPECT_TRUE(report.holds) << name << ": " << report.violation;
  }
  {
    const EtcMatrix m =
        tie_rich_matrix(static_cast<std::uint64_t>(seed) + 1000, 14, 4);
    const auto report = verify_theorem(*heuristic, Problem::full(m));
    EXPECT_TRUE(report.holds) << name << " (tie-rich): " << report.violation;
  }
}

/// A t x m matrix (t in 3-8, m in 2-4) of cells an integer 1-4 plus an
/// offset of 0, 0.6e-9 or 1.2e-9: neighbours 0.6e-9 apart chain a ~ b ~ c
/// with ends 1.2e-9 apart, which an absolute tie tolerance of 1e-9 ties
/// pairwise but not end to end.
EtcMatrix near_tie_chain_matrix(Rng& rng) {
  const auto tasks = static_cast<std::size_t>(rng.between(3, 8));
  const auto machines = static_cast<std::size_t>(rng.between(2, 4));
  std::vector<double> cells(tasks * machines);
  for (double& cell : cells) {
    cell = static_cast<double>(rng.between(1, 4)) +
           0.6e-9 * static_cast<double>(rng.below(3));
  }
  return EtcMatrix::from_values(tasks, machines, std::move(cells));
}

// The theorems need a transitive tie relation. Exact equality is one; a
// tolerance is not, and near-tie chains break the invariance under it.
TEST(Theorems, NearTieChainsKeepMappingInvariant) {
  constexpr int kInstances = 20000;
  for (const char* name : {"Min-Min", "MCT", "MET"}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    Rng rng(2718);
    int violations = 0;
    std::string first;
    for (int i = 0; i < kInstances; ++i) {
      const EtcMatrix m = near_tie_chain_matrix(rng);
      const auto report = verify_theorem(*heuristic, Problem::full(m));
      if (report.holds) continue;
      if (violations++ == 0) {
        first = "instance " + std::to_string(i) + ": " + report.violation;
      }
    }
    EXPECT_EQ(violations, 0) << name << ", first " << first;
  }
}

TEST(Theorems, MetNearTieChainRegression) {
  // Task 0's best ETC is 1 on m2, with m1 0.6e-9 and m0 1.2e-9 above it;
  // task 1 makes m2 the makespan machine. A 1e-9 tolerance ties {m1, m2},
  // maps task 0 to m1, then after m2's removal ties {m0, m1} and moves it
  // to m0. Exact ties map it to m2 and never move it.
  const EtcMatrix m =
      EtcMatrix::from_rows({{1 + 1.2e-9, 1 + 0.6e-9, 1, 4}, {4, 4, 2, 4}});
  const auto met = hcsched::heuristics::make_heuristic("MET");
  const auto report = verify_theorem(*met, Problem::full(m));
  EXPECT_TRUE(report.holds) << report.violation;
}

// The theorems at scale: one tie-rich 2048x8 instance, where almost every
// decision is a tie, through both the kernels and the reference loops.
// Integer cells keep every sum exact, so completion times must not move at
// all.
TEST(Theorems, MappingInvariantAtScale) {
  const EtcMatrix m = tie_rich_matrix(4242, 2048, 8);
  for (const bool use_kernels : {true, false}) {
    const hcsched::heuristics::fastpath::ScopedMode scope(use_kernels);
    for (const char* name : {"Min-Min", "MCT", "MET"}) {
      const auto heuristic = hcsched::heuristics::make_heuristic(name);
      const auto report = verify_theorem(*heuristic, Problem::full(m), 0.0);
      EXPECT_TRUE(report.holds) << name << (use_kernels ? "" : " (reference)")
                                << ": " << report.violation;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MinMinMctMet, TheoremTest,
    ::testing::Combine(::testing::Values(std::string("Min-Min"),
                                         std::string("MCT"),
                                         std::string("MET")),
                       ::testing::Range(1, 26)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

TEST(Theorems, InvarianceImpliesNoMakespanIncrease) {
  // Direct corollary check on a batch of tie-rich instances.
  for (const char* name : {"Min-Min", "MCT", "MET"}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const EtcMatrix m = tie_rich_matrix(seed, 10, 3);
      TieBreaker det;
      const auto result =
          IterativeMinimizer{IterativeOptions{.use_seeding = false}}.run(
              *heuristic, Problem::full(m), det);
      EXPECT_FALSE(result.makespan_increased()) << name << " seed " << seed;
      EXPECT_TRUE(hcsched::core::no_machine_worsened(result))
          << name << " seed " << seed;
    }
  }
}

TEST(Theorems, SwaKpbSufferageAreNotInvariant) {
  // The paper's §3.5-3.7 claims: witnesses exist where the mapping changes
  // (and the makespan increases) even with deterministic ties. Use the
  // witness search to exhibit one for each heuristic.
  for (const char* name : {"SWA", "KPB", "Sufferage"}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    hcsched::core::WitnessSpec spec;
    spec.num_tasks = 6;
    spec.num_machines = 3;
    spec.half_integers = true;
    Rng rng(2026);
    const auto witness = hcsched::core::find_makespan_increase_witness(
        *heuristic, spec, rng, 300000);
    ASSERT_TRUE(witness.has_value()) << name;
    const auto report = check_mapping_invariance(witness->result);
    EXPECT_FALSE(report.holds) << name;
    EXPECT_TRUE(witness->result.makespan_increased()) << name;
  }
}

TEST(Theorems, GenitorWithSeedingIsMonotone) {
  hcsched::ga::GenitorConfig cfg;
  cfg.population_size = 30;
  cfg.total_steps = 200;
  const hcsched::ga::Genitor genitor(cfg);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EtcMatrix m = continuous_matrix(seed + 500, 16, 4);
    TieBreaker ties;
    const auto result =
        IterativeMinimizer{IterativeOptions{.use_seeding = true}}.run(
            genitor, Problem::full(m), ties);
    const auto report = check_monotone_makespan(result);
    EXPECT_TRUE(report.holds) << "seed " << seed << ": " << report.violation;
    EXPECT_FALSE(result.makespan_increased()) << "seed " << seed;
  }
}

TEST(Theorems, CheckMonotoneDetectsViolations) {
  // Feed it a result that *does* increase: the MET paper example.
  const auto example = hcsched::core::met_example();
  const auto result = hcsched::core::run_paper_example(example);
  EXPECT_FALSE(check_monotone_makespan(result).holds);
}

TEST(Theorems, CheckInvarianceDetectsMovedTask) {
  const auto example = hcsched::core::mct_example();
  const auto result = hcsched::core::run_paper_example(example);
  const auto report = check_mapping_invariance(result);
  EXPECT_FALSE(report.holds);
  EXPECT_FALSE(report.violation.empty());
}

}  // namespace
