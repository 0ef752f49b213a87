#include "ga/genitor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>

#include "core/iterative.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/operators.hpp"
#include "heuristics/minmin.hpp"
#include "sched/validate.hpp"

namespace {

using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::ga::Chromosome;
using hcsched::ga::Evaluator;
using hcsched::ga::Genitor;
using hcsched::ga::GenitorConfig;
using hcsched::ga::rank_insert;
using hcsched::ga::Ranking;
using hcsched::ga::select_rank;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

EtcMatrix random_matrix(std::uint64_t seed, std::size_t tasks = 20,
                        std::size_t machines = 4) {
  Rng rng(seed);
  CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return CvbEtcGenerator(p).generate(rng);
}

TEST(Chromosome, EvaluateMatchesDecodedSchedule) {
  // The Evaluator's fold is the Schedule's: same sums in the same order, so
  // the loads and the makespan agree bit for bit, ready times included.
  const EtcMatrix m = random_matrix(1);
  const Problem full = Problem::full(m);
  const Problem p(m, full.tasks(), full.machines(), {0.0, 12.5, 3.25, 40.0});
  Evaluator evaluator(p);
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const Chromosome c = Chromosome::random(p, rng);
    const Schedule s = c.decode(p);
    EXPECT_EQ(evaluator.loads(c.genes()), s.completion_times_by_slot());
    EXPECT_EQ(evaluator.makespan(c.genes()), s.makespan());
  }
}

TEST(Chromosome, FromScheduleRoundTrips) {
  const EtcMatrix m = random_matrix(3);
  const Problem p = Problem::full(m);
  Rng rng(4);
  const Chromosome c = Chromosome::random(p, rng);
  const Schedule s = c.decode(p);
  const Chromosome back = Chromosome::from_schedule(p, s);
  EXPECT_EQ(c, back);
}

TEST(Chromosome, SizeMismatchThrows) {
  const EtcMatrix m = random_matrix(5);
  const Problem p = Problem::full(m);
  Chromosome wrong(std::vector<std::uint32_t>{0, 1});
  Evaluator evaluator(p);
  EXPECT_THROW((void)evaluator.makespan(wrong.genes()), std::invalid_argument);
  EXPECT_THROW((void)wrong.decode(p), std::invalid_argument);
}

TEST(Operators, CrossoverExchangesPrefix) {
  std::vector<std::uint32_t> x{0, 0, 0, 0, 0};
  std::vector<std::uint32_t> y{1, 1, 1, 1, 1};
  Rng rng(6);
  hcsched::ga::crossover(x, y, rng);
  // Per-position: each offspring holds one parent's gene and the genes are
  // complementary.
  std::size_t boundary_changes = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(x[i] + y[i], 1u);
    if (i > 0 && x[i] != x[i - 1]) ++boundary_changes;
  }
  EXPECT_EQ(boundary_changes, 1u);  // single cut point
  EXPECT_EQ(x[0], 1u);              // the cut is at least 1
}

TEST(Operators, CrossoverSizeMismatchThrows) {
  std::vector<std::uint32_t> a{0, 0};
  std::vector<std::uint32_t> b{1};
  Rng rng(7);
  EXPECT_THROW(hcsched::ga::crossover(a, b, rng), std::invalid_argument);
}

TEST(Operators, MutateChangesExactlyOneGeneSlot) {
  std::vector<std::uint32_t> c{0, 0, 0, 0};
  Rng rng(8);
  const std::size_t idx = hcsched::ga::mutate(c, 5, rng);
  ASSERT_NE(idx, hcsched::ga::kNpos);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i != idx) {
      EXPECT_EQ(c[i], 0u);
    }
  }
  EXPECT_LT(c[idx], 5u);
}

// Genitor's population is a Ranking of (makespan, gene-pool row) members.
std::string show(const Ranking& ranking) {
  std::string out;
  for (const auto& m : ranking) {
    out += std::to_string(static_cast<int>(m.makespan)) + ":" +
           std::to_string(m.row) + " ";
  }
  return out;
}

TEST(Population, KeepsSortedAndBounded) {
  Ranking ranking;
  std::vector<std::uint32_t> freed;
  rank_insert(ranking, 3, 5.0, 0, freed);
  rank_insert(ranking, 3, 2.0, 1, freed);
  rank_insert(ranking, 3, 8.0, 2, freed);
  EXPECT_EQ(show(ranking), "2:1 5:0 8:2 ");
  EXPECT_TRUE(freed.empty());
  // Overflow: inserting 1.0 evicts the last entry.
  rank_insert(ranking, 3, 1.0, 3, freed);
  EXPECT_EQ(show(ranking), "1:3 2:1 5:0 ");
  // Inserting something worse than the worst evicts the newcomer itself.
  rank_insert(ranking, 3, 9.0, 4, freed);
  EXPECT_EQ(show(ranking), "1:3 2:1 5:0 ");
  // A newcomer goes before equal makespans: a tie with the worst evicts the
  // incumbent, and a tie inside the ranking ranks the newcomer first.
  rank_insert(ranking, 3, 5.0, 5, freed);
  rank_insert(ranking, 3, 2.0, 6, freed);
  EXPECT_EQ(show(ranking), "1:3 2:6 2:1 ");
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{2, 4, 0, 5}));
}

TEST(Population, SelectionPrefersGoodRanks) {
  Rng rng(9);
  std::size_t top_half = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const std::size_t rank = select_rank(50, 1.9, rng);
    ASSERT_LT(rank, 50u);
    if (rank < 25) ++top_half;
  }
  EXPECT_GT(static_cast<double>(top_half) / kDraws, 0.60);
}

TEST(Population, RejectsBadConfig) {
  Rng rng(1);
  EXPECT_THROW((void)select_rank(0, 1.5, rng), std::logic_error);
  for (std::size_t size : {0u, 1u}) {
    GenitorConfig cfg;
    cfg.population_size = size;
    EXPECT_THROW(Genitor{cfg}, std::invalid_argument);
  }
  for (double bias : {0.5, 2.5}) {
    GenitorConfig cfg;
    cfg.selection_bias = bias;
    EXPECT_THROW(Genitor{cfg}, std::invalid_argument);
  }
}

TEST(Genitor, NeverWorseThanItsMinMinSeed) {
  GenitorConfig cfg;
  cfg.population_size = 40;
  cfg.total_steps = 300;
  const Genitor genitor(cfg);
  hcsched::heuristics::MinMin minmin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EtcMatrix m = random_matrix(seed + 20);
    const Problem p = Problem::full(m);
    TieBreaker t1;
    TieBreaker t2;
    const double ga_span = genitor.map(p, t1).makespan();
    const double mm_span = minmin.map(p, t2).makespan();
    EXPECT_LE(ga_span, mm_span + 1e-9) << "seed " << seed;
  }
}

TEST(Genitor, SeededRunNeverWorseThanSeed) {
  GenitorConfig cfg;
  cfg.population_size = 30;
  cfg.total_steps = 200;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(42);
  const Problem p = Problem::full(m);
  // A deliberately bad seed: everything on machine 0.
  Schedule bad(p);
  for (int t : p.tasks()) bad.assign(t, 0);
  TieBreaker ties;
  const Schedule out = genitor.map_seeded(p, ties, &bad);
  EXPECT_LE(out.makespan(), bad.makespan() + 1e-9);
  EXPECT_TRUE(hcsched::sched::is_valid(out));
}

TEST(Genitor, ReproducibleFromConfigSeed) {
  GenitorConfig cfg;
  cfg.population_size = 25;
  cfg.total_steps = 150;
  cfg.seed = 777;
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(55);
  const Problem p = Problem::full(m);
  TieBreaker t1;
  TieBreaker t2;
  const Schedule a = genitor.map(p, t1);
  const Schedule b = genitor.map(p, t2);
  EXPECT_TRUE(a.same_mapping(b));
}

TEST(Genitor, ImprovesOverRandomInitialBest) {
  GenitorConfig cfg;
  cfg.population_size = 40;
  cfg.total_steps = 500;
  cfg.seed_with_minmin = false;  // pure random start
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(66, 30, 5);
  const Problem p = Problem::full(m);
  TieBreaker ties;
  genitor.map(p, ties);
  const auto& stats = genitor.last_run();
  EXPECT_LT(stats.final_best, stats.initial_best);
  EXPECT_GT(stats.improvements, 0u);
}

TEST(Genitor, EarlyStoppingCapsSteps) {
  GenitorConfig cfg;
  cfg.population_size = 20;
  cfg.total_steps = 100000;
  cfg.stop_after_stale = 50;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(77, 10, 3);
  TieBreaker ties;
  genitor.map(Problem::full(m), ties);
  EXPECT_LT(genitor.last_run().steps_executed, 100000u);
}

TEST(Genitor, RejectsBadConfig) {
  GenitorConfig cfg;
  cfg.population_size = 1;
  EXPECT_THROW(Genitor{cfg}, std::invalid_argument);
  // A NaN bias fails closed at construction, not inside select_rank.
  cfg.population_size = 10;
  cfg.selection_bias = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Genitor{cfg}, std::invalid_argument);
  for (double bias : {1.0, 2.0}) {
    cfg.selection_bias = bias;
    EXPECT_NO_THROW(Genitor{cfg});
  }
}

// Golden Genitor results on fixed CVB instances, captured from the
// Population-of-Chromosomes driver that the flat gene pool replaced. Every
// field is exact: the genes, the makespan's bits and the run record. A
// change to the evaluation order, the replacement policy or the RNG draw
// order moves at least one of them.
struct Golden {
  std::vector<int> machines;  // machine_of, in Problem::tasks() order
  std::uint64_t makespan_bits;
  std::size_t steps;
  std::size_t improvements;
  std::uint64_t initial_bits;
  std::uint64_t final_bits;
};

void expect_golden(const Genitor& genitor, const Schedule& s,
                   const Golden& want) {
  std::vector<int> machines;
  for (int t : s.problem().tasks()) machines.push_back(*s.machine_of(t));
  const auto& run = genitor.last_run();
  const Golden got{machines,
                   std::bit_cast<std::uint64_t>(s.makespan()),
                   run.steps_executed,
                   run.improvements,
                   std::bit_cast<std::uint64_t>(run.initial_best),
                   std::bit_cast<std::uint64_t>(run.final_best)};
  EXPECT_EQ(got.machines, want.machines);
  EXPECT_EQ(got.makespan_bits, want.makespan_bits);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.improvements, want.improvements);
  EXPECT_EQ(got.initial_bits, want.initial_bits);
  EXPECT_EQ(got.final_bits, want.final_bits);
}

TEST(Genitor, GoldenUnseeded) {
  const EtcMatrix m = random_matrix(2007, 24, 6);
  const Genitor genitor;
  TieBreaker ties;
  const Schedule s = genitor.map(Problem::full(m), ties);
  expect_golden(genitor, s,
                {{0, 1, 1, 5, 0, 2, 2, 0, 4, 3, 5, 2,
                  0, 4, 0, 2, 3, 3, 1, 5, 0, 5, 4, 3},
                 0x409a777c58e4d05fULL, 2000, 4, 0x40a29b454f36eff7ULL,
                 0x409a777c58e4d05fULL});
}

TEST(Genitor, GoldenSeededWithRestrictedMapping) {
  // One step of the iterative technique: map, drop the makespan machine
  // and its tasks, and seed the next map with the surviving assignments.
  const EtcMatrix m = random_matrix(2008, 24, 6);
  const Problem full(m, Problem::full(m).tasks(), Problem::full(m).machines(),
                     {0.0, 250.0, 0.0, 125.5, 0.0, 400.25});
  TieBreaker det;
  const Schedule prev = hcsched::heuristics::MinMin().map(full, det);
  const int removed = prev.makespan_machine();
  const Problem next = full.without_machine(removed, prev.tasks_on(removed));
  const Schedule seed = hcsched::core::restrict_schedule(prev, next);
  GenitorConfig cfg;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  TieBreaker ties;
  const Schedule s = genitor.map_seeded(next, ties, &seed);
  expect_golden(genitor, s,
                {{2, 4, 2, 4, 0, 2, 4, 4, 1, 1, 5, 2, 0, 2, 5, 5, 4, 0, 0},
                 0x40984d23dbc7aa97ULL, 2000, 4, 0x409ae358687411deULL,
                 0x40984d23dbc7aa97ULL});
}

TEST(Genitor, GoldenStopsAfterStaleSteps) {
  const EtcMatrix m = random_matrix(2009, 24, 6);
  GenitorConfig cfg;
  cfg.stop_after_stale = 50;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  TieBreaker ties;
  const Schedule s = genitor.map(Problem::full(m), ties);
  expect_golden(genitor, s,
                {{5, 3, 0, 2, 4, 4, 2, 3, 0, 5, 3, 4,
                  4, 5, 5, 1, 3, 2, 1, 2, 1, 5, 4, 5},
                 0x40a52ddd028548a6ULL, 116, 3, 0x40a8b8e229ee142eULL,
                 0x40a52ddd028548a6ULL});
}

TEST(Genitor, GoldenSingleTask) {
  // T = 1: crossover draws no cut point.
  const EtcMatrix m = random_matrix(2010, 1, 6);
  GenitorConfig cfg;
  cfg.population_size = 10;
  cfg.total_steps = 40;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  TieBreaker ties;
  const Schedule s = genitor.map(Problem::full(m), ties);
  expect_golden(genitor, s,
                {{2}, 0x4073969ba44b705aULL, 40, 2, 0x4088bf7ab7012d98ULL,
                 0x4073969ba44b705aULL});
}

TEST(Genitor, GoldenSingleMachine) {
  const EtcMatrix m = random_matrix(2011, 24, 1);
  GenitorConfig cfg;
  cfg.population_size = 10;
  cfg.total_steps = 40;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  TieBreaker ties;
  const Schedule s = genitor.map(Problem::full(m), ties);
  expect_golden(genitor, s,
                {std::vector<int>(24, 0), 0x40d48470b0a8c944ULL, 40, 0,
                 0x40d48470b0a8c944ULL, 0x40d48470b0a8c944ULL});
}

}  // namespace
