#include "core/iterative.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "etc/cvb_generator.hpp"
#include "heuristics/mct.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/registry.hpp"
#include "sched/validate.hpp"

namespace {

using hcsched::core::IterativeMinimizer;
using hcsched::core::IterativeOptions;
using hcsched::core::IterativeResult;
using hcsched::sched::restrict_schedule;
using hcsched::etc::EtcMatrix;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

EtcMatrix random_matrix(std::uint64_t seed, std::size_t tasks = 15,
                        std::size_t machines = 4) {
  hcsched::rng::Rng rng(seed);
  hcsched::etc::CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return hcsched::etc::CvbEtcGenerator(p).generate(rng);
}

TEST(Iterative, RunsUntilOneMachineRemains) {
  const EtcMatrix m = random_matrix(1, 12, 5);
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r = IterativeMinimizer{}.run(mct, Problem::full(m),
                                                     ties);
  EXPECT_EQ(r.iterations.size(), 5u);  // |M| - 1 removals + terminal
  EXPECT_EQ(r.iterations.back().problem().num_machines(), 1u);
}

TEST(Iterative, RemovedMachineNeverReappears) {
  const EtcMatrix m = random_matrix(2, 20, 6);
  hcsched::heuristics::MinMin minmin;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(minmin, Problem::full(m), ties);
  std::set<int> removed;
  for (std::size_t i = 0; i + 1 < r.iterations.size(); ++i) {
    removed.insert(r.iterations[i].makespan_machine);
    for (int machine : r.iterations[i + 1].problem().machines()) {
      EXPECT_FALSE(removed.contains(machine))
          << "machine " << machine << " reappeared at iteration " << i + 1;
    }
  }
}

TEST(Iterative, TasksOfRemovedMachineAreDropped) {
  const EtcMatrix m = random_matrix(3, 18, 4);
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(mct, Problem::full(m), ties);
  for (std::size_t i = 0; i + 1 < r.iterations.size(); ++i) {
    const auto& done = r.iterations[i];
    const auto dropped = done.schedule.tasks_on(done.makespan_machine);
    const auto& next_tasks = r.iterations[i + 1].problem().tasks();
    for (int t : dropped) {
      EXPECT_EQ(std::count(next_tasks.begin(), next_tasks.end(), t), 0);
    }
    EXPECT_EQ(next_tasks.size(),
              done.problem().tasks().size() - dropped.size());
  }
}

TEST(Iterative, FinalFinishingTimesComeFromRemovalIteration) {
  const EtcMatrix m = random_matrix(4, 15, 4);
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(mct, Problem::full(m), ties);
  for (std::size_t i = 0; i + 1 < r.iterations.size(); ++i) {
    const auto& done = r.iterations[i];
    EXPECT_DOUBLE_EQ(r.final_finish_of(done.makespan_machine),
                     done.makespan);
  }
  // Survivor takes the terminal iteration's completion time.
  const auto& last = r.iterations.back();
  const int survivor = last.problem().machines().front();
  EXPECT_DOUBLE_EQ(r.final_finish_of(survivor),
                   last.schedule.completion_time(survivor));
}

TEST(Iterative, EverySchedulePassesValidation) {
  const EtcMatrix m = random_matrix(5, 25, 5);
  hcsched::heuristics::MinMin minmin;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(minmin, Problem::full(m), ties);
  for (const auto& it : r.iterations) {
    EXPECT_TRUE(hcsched::sched::is_valid(it.schedule))
        << "iteration " << it.index;
    EXPECT_TRUE(it.schedule.complete());
  }
}

TEST(Iterative, SingleMachineProblemTerminatesImmediately) {
  const EtcMatrix m = EtcMatrix::from_rows({{3}, {4}});
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(mct, Problem::full(m), ties);
  EXPECT_EQ(r.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(r.final_finish_of(0), 7.0);
  EXPECT_DOUBLE_EQ(r.final_makespan(), 7.0);
  EXPECT_FALSE(r.makespan_increased());
}

TEST(Iterative, StopsEarlyWhenTasksRunOut) {
  // One task, three machines: after the original mapping removes the only
  // loaded machine, the remaining problem has no tasks.
  const EtcMatrix m = EtcMatrix::from_rows({{1, 2, 3}});
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(mct, Problem::full(m), ties);
  ASSERT_GE(r.iterations.size(), 2u);
  EXPECT_EQ(r.iterations[1].problem().num_tasks(), 0u);
  EXPECT_EQ(r.iterations.size(), 2u);
  EXPECT_DOUBLE_EQ(r.final_finish_of(0), 1.0);
  EXPECT_DOUBLE_EQ(r.final_finish_of(1), 0.0);
  EXPECT_DOUBLE_EQ(r.final_finish_of(2), 0.0);
}

TEST(Iterative, InitialReadyTimesAreRestoredEachIteration) {
  const EtcMatrix m = EtcMatrix::from_rows({{5, 5, 5}, {1, 1, 1}, {1, 1, 1}});
  const Problem p(m, {0, 1, 2}, {0, 1, 2}, {2.0, 1.0, 0.0});
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r = IterativeMinimizer{}.run(mct, p, ties);
  for (const auto& it : r.iterations) {
    const auto& prob = it.problem();
    for (std::size_t slot = 0; slot < prob.num_machines(); ++slot) {
      const int machine = prob.machines()[slot];
      const double expected = machine == 0 ? 2.0 : (machine == 1 ? 1.0 : 0.0);
      EXPECT_DOUBLE_EQ(prob.initial_ready(slot), expected);
    }
  }
}

TEST(Iterative, MakespanIncreasedDetectsThePhenomenon) {
  // The MCT paper example with its tie script must flag an increase.
  const EtcMatrix m = EtcMatrix::from_rows(
      {{9, 2, 2}, {4, 9, 9}, {9, 1, 9}, {9, 9, 3}});
  hcsched::heuristics::Mct mct;
  TieBreaker scripted(std::vector<std::size_t>{0, 1});
  const IterativeResult r =
      IterativeMinimizer{IterativeOptions{.use_seeding = false}}.run(
          mct, Problem::full(m), scripted);
  EXPECT_TRUE(r.makespan_increased());
  EXPECT_DOUBLE_EQ(r.final_makespan(), 5.0);
}

TEST(Iterative, OriginalFinishingTimesMatchOriginalSchedule) {
  const EtcMatrix m = random_matrix(6, 10, 3);
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(mct, Problem::full(m), ties);
  const auto before = r.original_finishing_times();
  ASSERT_EQ(before.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(
        before[i],
        r.original().schedule.completion_time(static_cast<int>(i)));
  }
}

TEST(Iterative, UnknownMachineQueryThrows) {
  const EtcMatrix m = random_matrix(7, 6, 2);
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(mct, Problem::full(m), ties);
  EXPECT_THROW((void)r.final_finish_of(99), std::invalid_argument);
}

// Structural sweep: the iterative technique upholds its invariants for
// every registered heuristic (including the stochastic ones).
class IterativeSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IterativeSweepTest, InvariantsHoldForEveryHeuristic) {
  const auto heuristic = hcsched::heuristics::make_heuristic(GetParam());
  const EtcMatrix m = random_matrix(4242, 14, 4);
  TieBreaker ties;
  const IterativeResult r =
      IterativeMinimizer{}.run(*heuristic, Problem::full(m), ties);
  ASSERT_GE(r.iterations.size(), 2u);
  EXPECT_LE(r.iterations.size(), 4u);
  for (const auto& it : r.iterations) {
    EXPECT_TRUE(it.schedule.complete()) << GetParam();
    EXPECT_TRUE(hcsched::sched::is_valid(it.schedule)) << GetParam();
  }
  // Frozen finishing times come from the removal iterations.
  for (std::size_t i = 0; i + 1 < r.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.final_finish_of(r.iterations[i].makespan_machine),
                     r.iterations[i].makespan)
        << GetParam();
  }
  EXPECT_GE(r.final_makespan(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristics, IterativeSweepTest,
    ::testing::ValuesIn(hcsched::heuristics::known_heuristic_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RestrictSchedule, KeepsSurvivingAssignments) {
  const EtcMatrix m = random_matrix(8, 8, 3);
  const Problem full = Problem::full(m);
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  const Schedule s = mct.map(full, ties);
  const int span_machine = s.makespan_machine();
  const Problem rest =
      full.without_machine(span_machine, s.tasks_on(span_machine));
  const Schedule restricted = restrict_schedule(s, rest);
  EXPECT_TRUE(restricted.complete());
  for (int t : rest.tasks()) {
    EXPECT_EQ(*restricted.machine_of(t), *s.machine_of(t));
  }
  EXPECT_TRUE(hcsched::sched::is_valid(restricted));
}

TEST(RestrictSchedule, MissingTaskThrows) {
  const EtcMatrix m = random_matrix(9, 4, 2);
  const Problem full = Problem::full(m);
  Schedule partial(full);
  partial.assign(0, 0);
  EXPECT_THROW((void)restrict_schedule(partial, full),
               std::invalid_argument);
}

TEST(Iterative, NoMachinesThrows) {
  const EtcMatrix m(2, 2);
  const Problem p(m, {0, 1}, {});
  hcsched::heuristics::Mct mct;
  TieBreaker ties;
  EXPECT_THROW((void)IterativeMinimizer{}.run(mct, p, ties),
               std::invalid_argument);
}

}  // namespace
