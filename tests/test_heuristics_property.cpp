// Property sweeps over every registered heuristic on random instances.
#include <gtest/gtest.h>

#include <cctype>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/iterative.hpp"
#include "core/paper_examples.hpp"
#include "etc/cvb_generator.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/kpb.hpp"
#include "heuristics/mct.hpp"
#include "heuristics/met.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/olb.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/sufferage.hpp"
#include "heuristics/swa.hpp"
#include "rng/rng.hpp"
#include "sched/validate.hpp"

namespace {

using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

EtcMatrix random_matrix(std::uint64_t seed, std::size_t tasks,
                        std::size_t machines) {
  Rng rng(seed);
  CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  p.mean_task_time = 100.0;
  return CvbEtcGenerator(p).generate(rng);
}

/// Lower bound on any mapping's makespan: the cheapest possible placement of
/// the most constrained task.
double trivial_lower_bound(const EtcMatrix& m) {
  double lb = 0.0;
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    const auto row = m.row(static_cast<int>(t));
    lb = std::max(lb, *std::min_element(row.begin(), row.end()));
  }
  return lb;
}

class HeuristicPropertyTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(HeuristicPropertyTest, ProducesCompleteValidSchedules) {
  const auto heuristic = hcsched::heuristics::make_heuristic(GetParam());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const EtcMatrix m = random_matrix(seed, 24, 5);
    TieBreaker ties;
    const Schedule s = heuristic->map(Problem::full(m), ties);
    EXPECT_TRUE(s.complete());
    const auto errors = hcsched::sched::validate(s);
    EXPECT_TRUE(errors.empty())
        << GetParam() << " seed " << seed << ": "
        << (errors.empty() ? "" : errors.front());
  }
}

TEST_P(HeuristicPropertyTest, RespectsTrivialMakespanBounds) {
  const auto heuristic = hcsched::heuristics::make_heuristic(GetParam());
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    const EtcMatrix m = random_matrix(seed, 30, 4);
    TieBreaker ties;
    const Schedule s = heuristic->map(Problem::full(m), ties);
    EXPECT_GE(s.makespan() + 1e-9, trivial_lower_bound(m)) << GetParam();
    EXPECT_LE(s.makespan(), m.total() + 1e-9) << GetParam();
  }
}

TEST_P(HeuristicPropertyTest, DeterministicRunToRun) {
  const auto heuristic = hcsched::heuristics::make_heuristic(GetParam());
  const EtcMatrix m = random_matrix(99, 20, 6);
  TieBreaker t1;
  TieBreaker t2;
  const Schedule a = heuristic->map(Problem::full(m), t1);
  const Schedule b = heuristic->map(Problem::full(m), t2);
  EXPECT_TRUE(a.same_mapping(b)) << GetParam();
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan()) << GetParam();
}

TEST_P(HeuristicPropertyTest, HandlesSubsetProblemsWithReadyTimes) {
  const auto heuristic = hcsched::heuristics::make_heuristic(GetParam());
  const EtcMatrix m = random_matrix(7, 12, 4);
  const Problem p(m, {1, 3, 5, 7, 9}, {0, 2, 3}, {50.0, 0.0, 25.0});
  TieBreaker ties;
  const Schedule s = heuristic->map(p, ties);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(hcsched::sched::is_valid(s)) << GetParam();
  // No machine can finish before its initial ready time.
  EXPECT_GE(s.completion_time(0), 50.0 - 1e-9);
  EXPECT_GE(s.completion_time(3), 25.0 - 1e-9);
}

/// `m` with every cell times `scale`.
EtcMatrix scaled(const EtcMatrix& m, double scale) {
  std::vector<double> cells(m.data().begin(), m.data().end());
  for (double& cell : cells) cell *= scale;
  return EtcMatrix::from_values(m.num_tasks(), m.num_machines(),
                                std::move(cells));
}

/// Every task and machine of `m`, machine j ready at ready[j] (0 when
/// `ready` is empty).
Problem whole(const EtcMatrix& m, std::vector<double> ready) {
  std::vector<hcsched::sched::TaskId> tasks(m.num_tasks());
  std::vector<hcsched::sched::MachineId> machines(m.num_machines());
  std::iota(tasks.begin(), tasks.end(), 0);
  std::iota(machines.begin(), machines.end(), 0);
  return Problem(m, std::move(tasks), std::move(machines), std::move(ready));
}

/// Runs the iterative technique on `m` and on a copy with every ETC cell
/// and ready time times `scale`, a power of two: every sum, difference and
/// ratio then scales exactly, so a scale-free heuristic must make the same
/// decisions. Expects the same mapping and removed machine each iteration
/// and finishing times exactly `scale` times the originals.
void expect_scales_exactly(const hcsched::heuristics::Heuristic& heuristic,
                           const EtcMatrix& m, const std::vector<double>& ready,
                           const std::function<TieBreaker(Rng&)>& make_ties,
                           double scale, const std::string& where) {
  std::vector<double> scaled_ready = ready;
  for (double& r : scaled_ready) r *= scale;
  const EtcMatrix big = scaled(m, scale);
  const hcsched::core::IterativeMinimizer minimizer;
  Rng base_rng(17);
  Rng scaled_rng(17);
  TieBreaker base_ties = make_ties(base_rng);
  TieBreaker scaled_ties = make_ties(scaled_rng);
  const auto base = minimizer.run(heuristic, whole(m, ready), base_ties);
  const auto other =
      minimizer.run(heuristic, whole(big, scaled_ready), scaled_ties);
  ASSERT_EQ(base.iterations.size(), other.iterations.size()) << where;
  for (std::size_t i = 0; i < base.iterations.size(); ++i) {
    const auto& a = base.iterations[i];
    const auto& b = other.iterations[i];
    const std::string at = where + ", iteration " + std::to_string(i);
    EXPECT_EQ(a.makespan_machine, b.makespan_machine) << at;
    for (const auto task : a.problem().tasks()) {
      EXPECT_EQ(a.schedule.machine_of(task), b.schedule.machine_of(task))
          << at << ", task " << task;
    }
    for (const auto machine : a.problem().machines()) {
      EXPECT_EQ(a.schedule.completion_time(machine) * scale,
                b.schedule.completion_time(machine))
          << at << ", machine " << machine;
    }
  }
  ASSERT_EQ(base.final_finishing_times.size(),
            other.final_finishing_times.size())
      << where;
  for (std::size_t i = 0; i < base.final_finishing_times.size(); ++i) {
    EXPECT_EQ(base.final_finishing_times[i].second * scale,
              other.final_finishing_times[i].second)
        << where << ", final finishing time " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristics, HeuristicPropertyTest,
    ::testing::ValuesIn(hcsched::heuristics::known_heuristic_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(HeuristicScaling, PowerOfTwoScalingScalesExactly) {
  const auto deterministic = [](Rng&) { return TieBreaker(); };
  const auto random = [](Rng& rng) { return TieBreaker(rng); };
  for (const std::string& name : hcsched::heuristics::known_heuristic_names()) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    // 2^-30 puts distinct small integers about 1e-9 apart; 2^20 spreads
    // them about 1e6 apart.
    for (const int exponent : {-30, 20}) {
      const double scale = std::ldexp(1.0, exponent);
      const std::string at = name + " x2^" + std::to_string(exponent);
      for (const auto& example : hcsched::core::all_paper_examples()) {
        const auto& script = example.tie_script;
        expect_scales_exactly(
            *heuristic, *example.matrix, {},
            [&script](Rng&) {
              return script.empty() ? TieBreaker() : TieBreaker(script);
            },
            scale, at + ", paper example " + example.id);
      }
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string case_at = at + ", seed " + std::to_string(seed);
        expect_scales_exactly(*heuristic, random_matrix(seed, 12, 4),
                              {0.0, 30.0, 10.0, 55.0}, deterministic, scale,
                              case_at + " CVB");
        Rng rng(seed + 40);
        std::vector<double> cells(10 * 4);
        for (double& cell : cells) {
          cell = static_cast<double>(rng.between(1, 4));
        }
        const EtcMatrix ints = EtcMatrix::from_values(10, 4, std::move(cells));
        for (const auto& ties :
             {std::function<TieBreaker(Rng&)>(deterministic),
              std::function<TieBreaker(Rng&)>(random)}) {
          expect_scales_exactly(*heuristic, ints, {0.0, 2.0, 1.0, 0.0}, ties,
                                scale, case_at + " tie-rich");
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// `m` with machine j's column moved to column perm[j].
EtcMatrix relabelled(const EtcMatrix& m,
                     const std::vector<hcsched::sched::MachineId>& perm) {
  EtcMatrix out(m.num_tasks(), m.num_machines());
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    for (std::size_t j = 0; j < m.num_machines(); ++j) {
      out.at(static_cast<int>(t), perm[j]) =
          m.at(static_cast<int>(t), static_cast<int>(j));
    }
  }
  return out;
}

// Machine labels carry no meaning once no decision ties: relabelling the
// machines of a tie-free instance relabels the schedule and the removed
// machine of every round, and leaves every finishing time bit-identical.
// Continuous CVB cells and distinct nonzero ready times keep the instances
// tie-free (an idle machine finishes at its ready time); the tie counter
// checks that they are.
TEST(HeuristicRelabelling, PermutingMachinesPermutesTheIterativeRun) {
  constexpr std::size_t kMachines = 6;
  const std::vector<double> ready = {7.5, 31.25, 3.0, 55.5, 12.0, 20.75};
  for (const char* name : {"MET", "MCT", "OLB", "Min-Min", "Max-Min",
                           "Duplex", "SWA", "KPB", "Sufferage"}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    const hcsched::core::IterativeMinimizer minimizer;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const EtcMatrix m = random_matrix(seed, 30, kMachines);
      std::vector<hcsched::sched::MachineId> perm(kMachines);
      std::iota(perm.begin(), perm.end(), 0);
      Rng shuffler(seed + 70);
      shuffler.shuffle(std::span(perm));
      std::vector<double> perm_ready(kMachines);
      for (std::size_t j = 0; j < kMachines; ++j) {
        perm_ready[static_cast<std::size_t>(perm[j])] = ready[j];
      }
      const auto relabel = [&perm](hcsched::sched::MachineId j) {
        return perm[static_cast<std::size_t>(j)];
      };
      const std::string at = std::string(name) + ", seed " +
                             std::to_string(seed);

      TieBreaker base_ties;
      TieBreaker perm_ties;
      const auto base = minimizer.run(*heuristic, whole(m, ready), base_ties);
      const auto other = minimizer.run(
          *heuristic, whole(relabelled(m, perm), perm_ready), perm_ties);
      EXPECT_EQ(base_ties.tie_events(), 0u) << at;
      EXPECT_EQ(perm_ties.tie_events(), 0u) << at;
      ASSERT_EQ(base.iterations.size(), other.iterations.size()) << at;
      for (std::size_t i = 0; i < base.iterations.size(); ++i) {
        const auto& a = base.iterations[i];
        const auto& b = other.iterations[i];
        const std::string it = at + ", iteration " + std::to_string(i);
        EXPECT_EQ(relabel(a.makespan_machine), b.makespan_machine) << it;
        for (const auto task : a.problem().tasks()) {
          EXPECT_EQ(relabel(*a.schedule.machine_of(task)),
                    b.schedule.machine_of(task))
              << it << ", task " << task;
        }
        for (const auto machine : a.problem().machines()) {
          EXPECT_EQ(a.schedule.completion_time(machine),
                    b.schedule.completion_time(relabel(machine)))
              << it << ", machine " << machine;
        }
      }
      for (const auto& [machine, finish] : base.final_finishing_times) {
        EXPECT_EQ(finish, other.final_finish_of(relabel(machine)))
            << at << ", machine " << machine;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(HeuristicComparisons, KpbWithFullPercentEqualsMct) {
  hcsched::heuristics::Kpb kpb100(100.0);
  hcsched::heuristics::Mct mct;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EtcMatrix m = random_matrix(seed, 18, 5);
    TieBreaker t1;
    TieBreaker t2;
    const Schedule a = kpb100.map(Problem::full(m), t1);
    const Schedule b = mct.map(Problem::full(m), t2);
    EXPECT_TRUE(a.same_mapping(b)) << "seed " << seed;
  }
}

TEST(HeuristicComparisons, KpbWithSingletonSubsetEqualsMet) {
  // 1/|M| percent: subset size floor(5 * 20 / 100) = 1.
  hcsched::heuristics::Kpb kpb_met(20.0);
  hcsched::heuristics::Met met;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EtcMatrix m = random_matrix(seed + 50, 18, 5);
    TieBreaker t1;
    TieBreaker t2;
    const Schedule a = kpb_met.map(Problem::full(m), t1);
    const Schedule b = met.map(Problem::full(m), t2);
    EXPECT_TRUE(a.same_mapping(b)) << "seed " << seed;
  }
}

TEST(TwoPhaseGreedyInvariants, NeverAssignsToRemovedMachine) {
  // Under the iterative technique, every machine the previous iterations
  // froze is gone from the shrunk Problem; neither greedy path may ever
  // assign a task to one — whichever dispatch mode is active.
  using hcsched::heuristics::fastpath::ScopedMode;
  for (const bool use_kernels : {false, true}) {
    const ScopedMode scope(use_kernels);
    for (const char* name : {"Min-Min", "Max-Min"}) {
      const auto heuristic = hcsched::heuristics::make_heuristic(name);
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const EtcMatrix m = random_matrix(seed + 200, 24, 6);
        const hcsched::core::IterativeMinimizer minimizer;
        TieBreaker ties;
        const auto result =
            minimizer.run(*heuristic, Problem::full(m), ties);
        std::vector<hcsched::sched::MachineId> removed;
        for (const auto& record : result.iterations) {
          // Machines removed by *earlier* iterations must be invisible to
          // this iteration's mapping.
          for (const hcsched::sched::MachineId gone : removed) {
            for (const auto& a : record.schedule.assignment_order()) {
              EXPECT_NE(a.machine, gone)
                  << name << " seed " << seed << " iteration "
                  << record.index;
            }
          }
          removed.push_back(record.makespan_machine);
        }
      }
    }
  }
}

TEST(TwoPhaseGreedyInvariants, MinMinRoundBestCompletionTimesMonotone) {
  // Min-Min picks the globally smallest attainable completion time each
  // round, and ready times only grow, so the sequence of assigned finish
  // times is non-decreasing. Holds for both dispatch paths.
  using hcsched::heuristics::fastpath::ScopedMode;
  for (const bool use_kernels : {false, true}) {
    const ScopedMode scope(use_kernels);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const EtcMatrix m = random_matrix(seed + 300, 32, 5);
      TieBreaker ties;
      const Schedule s = hcsched::heuristics::detail::two_phase_greedy(
          Problem::full(m), ties, /*prefer_largest=*/false);
      const auto& order = s.assignment_order();
      for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_GE(order[i].finish, order[i - 1].finish - 1e-9)
            << "seed " << seed << " assignment " << i;
      }
    }
  }
}

TEST(SufferageInvariants, SufferageValuesNonNegativeUnderBothPaths) {
  // A task's sufferage is second-best CT minus best CT, so it can never be
  // negative, and with a single machine it is defined as 0 (sufferage.hpp).
  // Checked through the commit trace with the kernel dispatched both ways.
  using hcsched::heuristics::fastpath::ScopedMode;
  const hcsched::heuristics::Sufferage sufferage;
  for (const bool use_kernels : {false, true}) {
    const ScopedMode scope(use_kernels);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const EtcMatrix m = random_matrix(seed + 400, 28, 6);
      TieBreaker ties;
      std::vector<hcsched::heuristics::SufferageStep> trace;
      const Schedule s =
          sufferage.map_traced(Problem::full(m), ties, &trace);
      EXPECT_TRUE(s.complete());
      ASSERT_EQ(trace.size(), m.num_tasks());
      for (const auto& step : trace) {
        EXPECT_GE(step.sufferage, 0.0)
            << "seed " << seed << " task " << step.task;
        EXPECT_GE(step.min_ct, 0.0);
      }
    }
    // Single machine: every sufferage is exactly 0.
    const EtcMatrix narrow = random_matrix(3, 10, 1);
    TieBreaker ties;
    std::vector<hcsched::heuristics::SufferageStep> trace;
    (void)sufferage.map_traced(Problem::full(narrow), ties, &trace);
    for (const auto& step : trace) {
      EXPECT_EQ(step.sufferage, 0.0) << "task " << step.task;
    }
  }
}

TEST(KpbInvariants, ChosenMachineInsideKPercentSubsetUnderBothPaths) {
  // KPB may only assign inside the k-percent-best subset, the subset must
  // have exactly max(1, floor(m*k/100)) distinct valid machines, and every
  // subset member's ETC must be <= every non-member's ETC for that task.
  using hcsched::heuristics::fastpath::ScopedMode;
  const hcsched::heuristics::Kpb kpb(70.0);
  for (const bool use_kernels : {false, true}) {
    const ScopedMode scope(use_kernels);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const EtcMatrix m = random_matrix(seed + 500, 24, 6);
      const Problem problem = Problem::full(m);
      const std::size_t k = kpb.subset_size(problem.num_machines());
      TieBreaker ties;
      std::vector<hcsched::heuristics::KpbStep> trace;
      const Schedule s = kpb.map_traced(problem, ties, &trace);
      EXPECT_TRUE(s.complete());
      ASSERT_EQ(trace.size(), m.num_tasks());
      for (const auto& step : trace) {
        ASSERT_EQ(step.subset.size(), k) << "task " << step.task;
        EXPECT_NE(std::find(step.subset.begin(), step.subset.end(),
                            step.machine),
                  step.subset.end())
            << "seed " << seed << " task " << step.task
            << ": assigned machine outside the k-percent subset";
        double worst_inside = 0.0;
        for (const auto member : step.subset) {
          worst_inside = std::max(worst_inside, m.at(step.task, member));
        }
        for (std::size_t slot = 0; slot < m.num_machines(); ++slot) {
          const auto id = static_cast<hcsched::sched::MachineId>(slot);
          if (std::find(step.subset.begin(), step.subset.end(), id) !=
              step.subset.end()) {
            continue;
          }
          EXPECT_GE(m.at(step.task, id) + 1e-12, worst_inside)
              << "seed " << seed << " task " << step.task << ": machine "
              << slot << " outside the subset beats a member";
        }
      }
    }
  }
}

/// Maps `m` with `swa` and checks the trace against Figure 13's rule: the
/// balance index min(ready)/max(ready) lives in [0, 1]; the first task is
/// mapped by MCT with no index; afterwards the mode follows the paper's
/// hysteresis — above high switches to MET, below low back to MCT, in
/// between the previous mode sticks.
void expect_swa_hysteresis(const hcsched::heuristics::Swa& swa,
                           const EtcMatrix& m, TieBreaker& ties,
                           const std::string& label) {
  using hcsched::heuristics::SwaMode;
  std::vector<hcsched::heuristics::SwaStep> trace;
  const Schedule s = swa.map_traced(Problem::full(m), ties, &trace);
  EXPECT_TRUE(s.complete()) << label;
  ASSERT_EQ(trace.size(), m.num_tasks()) << label;
  EXPECT_FALSE(trace.front().balance_index.has_value()) << label;
  EXPECT_EQ(trace.front().mode, SwaMode::kMct) << label;
  SwaMode expected = SwaMode::kMct;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_TRUE(trace[i].balance_index.has_value()) << label << " step " << i;
    const double bi = *trace[i].balance_index;
    EXPECT_GE(bi, 0.0) << label << " step " << i;
    EXPECT_LE(bi, 1.0) << label << " step " << i;
    if (bi > swa.high_threshold()) {
      expected = SwaMode::kMet;
    } else if (bi < swa.low_threshold()) {
      expected = SwaMode::kMct;
    }
    EXPECT_EQ(trace[i].mode, expected) << label << " step " << i;
  }
}

TEST(SwaInvariants, BalanceIndexAndModeFollowHysteresis) {
  // The default thresholds with deterministic ties, then tight thresholds
  // (0.6 / 0.75) with random ties, which switch MCT <-> MET often.
  const hcsched::heuristics::Swa defaults;  // low 0.35, high 0.49
  const hcsched::heuristics::Swa tight(0.6, 0.75);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TieBreaker det_ties;
    expect_swa_hysteresis(defaults, random_matrix(seed + 600, 28, 5),
                          det_ties, "defaults seed " + std::to_string(seed));
    Rng rng(seed * 19);
    TieBreaker random_ties(rng);
    expect_swa_hysteresis(tight, random_matrix(seed, 30, 6), random_ties,
                          "tight seed " + std::to_string(seed));
  }
}

TEST(HeuristicComparisons, MinMinUsuallyBeatsOlbOnInconsistentMatrices) {
  hcsched::heuristics::MinMin minmin;
  hcsched::heuristics::Olb olb;
  int minmin_wins = 0;
  constexpr int kTrials = 20;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    const EtcMatrix m = random_matrix(seed + 100, 40, 6);
    TieBreaker t1;
    TieBreaker t2;
    if (minmin.map(Problem::full(m), t1).makespan() <
        olb.map(Problem::full(m), t2).makespan()) {
      ++minmin_wins;
    }
  }
  EXPECT_GE(minmin_wins, kTrials * 3 / 4);
}

}  // namespace
