// Differential test of IterativeMinimizer::run against a copying oracle.
//
// The minimizer shrinks one Problem in place each round, hands the
// heuristic the previous iteration's whole schedule as its seed and compacts
// the fastpath view by slot and rows. The oracle below is the plain
// statement of the paper's loop: a fresh Problem per round
// (Problem::without_machine), the seed restricted to it (restrict_schedule),
// and no reuse context. Both must produce the same trajectory bit for bit —
// every iteration's mapping, makespan machine and completion times, the
// final finishing times and the tie breaker's counts — for every registered
// heuristic, Genitor and Seeded<...>, on the paper's examples and on
// tie-rich random instances.
//
// The seed-contract test pins the map_seeded contract the minimizer relies
// on: every seed consumer returns the same mapping whether it gets the full
// previous schedule or its restriction to the problem.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/iterative.hpp"
#include "core/paper_examples.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/genitor.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/seeded.hpp"

namespace {

using hcsched::core::IterationRecord;
using hcsched::core::IterativeMinimizer;
using hcsched::core::IterativeOptions;
using hcsched::core::IterativeResult;
using hcsched::etc::EtcMatrix;
using hcsched::heuristics::Heuristic;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::MachineId;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

using Factory = std::function<std::unique_ptr<Heuristic>()>;

/// The iterative technique as a copying loop: one new Problem and one
/// restricted seed Schedule per round.
IterativeResult copying_run(const Heuristic& heuristic, const Problem& problem,
                            TieBreaker& ties, const IterativeOptions& options) {
  IterativeResult result;
  for (MachineId m : problem.machines()) {
    result.final_finishing_times.emplace_back(m, 0.0);
  }
  auto record_finish = [&result](MachineId machine, double finish) {
    for (auto& [m, t] : result.final_finishing_times) {
      if (m == machine) t = finish;
    }
  };
  Problem current = problem;
  Schedule seed_storage;
  const Schedule* seed = nullptr;
  for (std::size_t index = 0;; ++index) {
    IterationRecord record;
    record.index = index;
    record.schedule = options.use_seeding
                          ? heuristic.map_seeded(current, ties, seed)
                          : heuristic.map(current, ties);
    record.makespan = record.schedule.makespan();
    record.makespan_machine = record.schedule.makespan_machine(options.epsilon);
    result.iterations.push_back(std::move(record));
    const IterationRecord& done = result.iterations.back();
    if (current.num_machines() == 1 || current.num_tasks() == 0) {
      for (MachineId m : current.machines()) {
        record_finish(m, done.schedule.completion_time(m));
      }
      return result;
    }
    record_finish(done.makespan_machine, done.makespan);
    current = done.problem().without_machine(
        done.makespan_machine, done.schedule.tasks_on(done.makespan_machine));
    seed = nullptr;
    if (options.use_seeding) {
      seed_storage = hcsched::sched::restrict_schedule(done.schedule, current);
      seed = &seed_storage;
    }
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

void expect_same_trajectory(const IterativeResult& expected,
                            const IterativeResult& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.iterations.size(), actual.iterations.size()) << context;
  for (std::size_t i = 0; i < expected.iterations.size(); ++i) {
    const IterationRecord& e = expected.iterations[i];
    const IterationRecord& a = actual.iterations[i];
    const std::string where = context + ", iteration " + std::to_string(i);
    EXPECT_EQ(e.problem().tasks(), a.problem().tasks()) << where;
    EXPECT_EQ(e.problem().machines(), a.problem().machines()) << where;
    EXPECT_TRUE(e.schedule.same_mapping(a.schedule)) << where;
    EXPECT_EQ(e.schedule.assignment_order(), a.schedule.assignment_order())
        << where;
    EXPECT_EQ(e.makespan_machine, a.makespan_machine) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.makespan),
              std::bit_cast<std::uint64_t>(a.makespan))
        << where;
    EXPECT_TRUE(same_bits(e.schedule.completion_times_by_slot(),
                          a.schedule.completion_times_by_slot()))
        << where;
  }
  ASSERT_EQ(expected.final_finishing_times.size(),
            actual.final_finishing_times.size())
      << context;
  for (std::size_t i = 0; i < expected.final_finishing_times.size(); ++i) {
    EXPECT_EQ(expected.final_finishing_times[i].first,
              actual.final_finishing_times[i].first)
        << context;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  expected.final_finishing_times[i].second),
              std::bit_cast<std::uint64_t>(
                  actual.final_finishing_times[i].second))
        << context << ", machine " << expected.final_finishing_times[i].first;
  }
}

std::unique_ptr<Heuristic> small_genitor() {
  hcsched::ga::GenitorConfig config;
  config.population_size = 16;
  config.total_steps = 150;
  return std::make_unique<hcsched::ga::Genitor>(config);
}

/// Every registered heuristic (Genitor with a small step count), plus
/// Seeded<...> around a greedy, a list-ordered and a search heuristic.
std::vector<std::pair<std::string, Factory>> heuristics_under_test() {
  std::vector<std::pair<std::string, Factory>> out;
  for (const std::string& name :
       hcsched::heuristics::known_heuristic_names()) {
    if (name == "Genitor") {
      out.emplace_back(name, small_genitor);
    } else {
      out.emplace_back(name, [name] {
        return hcsched::heuristics::make_heuristic(name);
      });
    }
  }
  for (const std::string inner : {"MCT", "Min-Min", "KPB", "Sufferage"}) {
    out.emplace_back("Seeded<" + inner + ">", [inner] {
      return hcsched::heuristics::make_seeded(inner);
    });
  }
  out.emplace_back("Seeded<Genitor>", [] {
    return std::make_unique<hcsched::heuristics::Seeded>(small_genitor());
  });
  return out;
}

/// A CVB matrix with its cells rounded to a few integer levels, so that
/// most choices tie and random ties are exercised.
EtcMatrix tie_rich_matrix(std::uint64_t seed, std::size_t tasks,
                          std::size_t machines) {
  Rng rng(seed);
  hcsched::etc::CvbParams params;
  params.num_tasks = tasks;
  params.num_machines = machines;
  const EtcMatrix cvb = hcsched::etc::CvbEtcGenerator(params).generate(rng);
  std::vector<double> values(cvb.data().begin(), cvb.data().end());
  for (double& v : values) v = std::ceil(v / 400.0);
  return EtcMatrix::from_values(tasks, machines, std::move(values));
}

/// Tie breaker for one run; a random one draws from `rng`.
using TieMaker = std::function<TieBreaker(Rng& rng)>;

/// Runs the oracle and the minimizer, seeded and unseeded, on equal tie
/// breakers (random ones from equal generators) and compares.
void check_case(const Heuristic& heuristic, const Problem& problem,
                const TieMaker& make_ties, const std::string& context) {
  for (const bool seeding : {true, false}) {
    IterativeOptions options;
    options.use_seeding = seeding;
    Rng oracle_rng(20070326);
    Rng run_rng(20070326);
    TieBreaker oracle_ties = make_ties(oracle_rng);
    TieBreaker run_ties = make_ties(run_rng);
    const IterativeResult expected =
        copying_run(heuristic, problem, oracle_ties, options);
    const IterativeResult actual =
        IterativeMinimizer{options}.run(heuristic, problem, run_ties);
    const std::string where =
        context + (seeding ? " (seeded)" : " (unseeded)");
    expect_same_trajectory(expected, actual, where);
    EXPECT_EQ(oracle_ties.decisions(), run_ties.decisions()) << where;
    EXPECT_EQ(oracle_ties.tie_events(), run_ties.tie_events()) << where;
  }
}

TEST(IterativeLoop, MatchesCopyingOracleOnPaperExamples) {
  for (const auto& example : hcsched::core::all_paper_examples()) {
    const Problem problem = Problem::full(*example.matrix);
    for (const auto& [name, make] : heuristics_under_test()) {
      const auto heuristic = make();
      check_case(
          *heuristic, problem,
          [&example](Rng&) {
            return example.tie_script.empty()
                       ? TieBreaker()
                       : TieBreaker(example.tie_script);
          },
          name + " on example " + example.id);
    }
  }
}

TEST(IterativeLoop, MatchesCopyingOracleOnTieRichRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EtcMatrix matrix =
        tie_rich_matrix(seed * 104729, 6 + seed, 3 + seed % 3);
    const Problem problem = Problem::full(matrix);
    const std::string instance = " on tie-rich seed " + std::to_string(seed);
    for (const auto& [name, make] : heuristics_under_test()) {
      const auto heuristic = make();
      check_case(*heuristic, problem,
                 [](Rng& rng) { return TieBreaker(rng); },
                 name + " (random ties)" + instance);
      check_case(*heuristic, problem, [](Rng&) { return TieBreaker(); },
                 name + " (deterministic ties)" + instance);
    }
  }
}

TEST(SeedContract, ConsumersReadOnlyTheRestrictionOfTheSeed) {
  std::vector<std::pair<std::string, Factory>> consumers;
  consumers.emplace_back("Genitor", small_genitor);
  for (const std::string name : {"SA", "GSA", "Tabu", "Local Search"}) {
    consumers.emplace_back(name, [name] {
      return hcsched::heuristics::make_heuristic(name);
    });
  }
  consumers.emplace_back("Seeded<MCT>", [] {
    return hcsched::heuristics::make_seeded("MCT");
  });
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const EtcMatrix matrix = tie_rich_matrix(seed * 7907, 12, 4);
    const Problem full = Problem::full(matrix);
    for (const auto& [name, make] : consumers) {
      const auto heuristic = make();
      // The previous iteration, as the minimizer would keep it, and the
      // problem of the next one.
      TieBreaker first_ties;
      const Schedule previous = heuristic->map(full, first_ties);
      const MachineId removed = previous.makespan_machine();
      const Problem next =
          full.without_machine(removed, previous.tasks_on(removed));
      const Schedule restricted =
          hcsched::sched::restrict_schedule(previous, next);

      Rng rng_full(seed);
      Rng rng_restricted(seed);
      TieBreaker ties_full(rng_full);
      TieBreaker ties_restricted(rng_restricted);
      const Schedule from_full = heuristic->map_seeded(next, ties_full,
                                                       &previous);
      const Schedule from_restricted =
          heuristic->map_seeded(next, ties_restricted, &restricted);
      const std::string where = name + ", seed " + std::to_string(seed);
      EXPECT_TRUE(from_full.same_mapping(from_restricted)) << where;
      EXPECT_TRUE(same_bits(from_full.completion_times_by_slot(),
                            from_restricted.completion_times_by_slot()))
          << where;
      EXPECT_EQ(ties_full.decisions(), ties_restricted.decisions()) << where;
    }
  }
}

}  // namespace
