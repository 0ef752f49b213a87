#include "ga/genitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
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
using hcsched::ga::Ranked;
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

TEST(Chromosome, EvaluatorReadsTheProblemsCellsBeforeAndAfterRemoval) {
  // A subset whose task and machine orders are not the identity, so a
  // gather that indexed the matrix by position would read other cells.
  const EtcMatrix m = random_matrix(6, 8, 5);
  Problem p(m, {5, 0, 7, 2, 3}, {3, 0, 4, 1});
  const auto expect_cells = [&p](const char* when) {
    const Evaluator evaluator(p);
    for (std::size_t i = 0; i < p.num_tasks(); ++i) {
      for (std::size_t s = 0; s < p.num_machines(); ++s) {
        EXPECT_EQ(evaluator.etc(i, s), p.etc_at(p.tasks()[i], s))
            << when << ", row " << i << ", slot " << s;
      }
    }
  };
  expect_cells("before removal");
  p.remove_machine(1, std::vector<std::size_t>{0, 3});  // machine 0
  ASSERT_EQ(p.machines(), (std::vector<hcsched::sched::MachineId>{3, 4, 1}));
  expect_cells("after removal");
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
  EXPECT_TRUE(hcsched::ga::crossover(x, y, rng));
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

TEST(Operators, CrossoverOfEqualPrefixesChangesNothing) {
  // The parents differ only in the last gene, which no cut in [1, n-1]
  // swaps. The cut is still drawn, so the stream advances as for a swap.
  std::vector<std::uint32_t> x{2, 2, 2, 2, 0};
  std::vector<std::uint32_t> y{2, 2, 2, 2, 1};
  Rng rng(6);
  Rng twin(6);
  EXPECT_FALSE(hcsched::ga::crossover(x, y, rng));
  EXPECT_EQ(x, (std::vector<std::uint32_t>{2, 2, 2, 2, 0}));
  EXPECT_EQ(y, (std::vector<std::uint32_t>{2, 2, 2, 2, 1}));
  (void)twin.below(4);
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
  std::vector<std::uint32_t> one{3};
  std::vector<std::uint32_t> other{4};
  EXPECT_FALSE(hcsched::ga::crossover(one, other, rng));
  EXPECT_EQ(rng.next_u64(), twin.next_u64());  // n < 2 draws nothing
}

TEST(Operators, MutateOfOwnSlotChangesNothing) {
  // With one slot every redraw is the gene's own; both draws still happen.
  std::vector<std::uint32_t> c{0, 0, 0};
  Rng rng(8);
  Rng twin(8);
  EXPECT_EQ(hcsched::ga::mutate(c, 1, rng), hcsched::ga::kNpos);
  EXPECT_EQ(c, (std::vector<std::uint32_t>{0, 0, 0}));
  (void)twin.below(3);
  (void)twin.below(1);
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
  // An empty chromosome draws nothing.
  std::vector<std::uint32_t> empty;
  EXPECT_EQ(hcsched::ga::mutate(empty, 4, rng), hcsched::ga::kNpos);
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
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
  Ranking ranking(3);
  std::vector<std::uint32_t> freed;
  ranking.insert(5.0, 0, freed);
  ranking.insert(2.0, 1, freed);
  ranking.insert(8.0, 2, freed);
  EXPECT_EQ(show(ranking), "2:1 5:0 8:2 ");
  EXPECT_TRUE(freed.empty());
  // Overflow: inserting 1.0 evicts the last entry.
  ranking.insert(1.0, 3, freed);
  EXPECT_EQ(show(ranking), "1:3 2:1 5:0 ");
  // Inserting something worse than the worst evicts the newcomer itself.
  ranking.insert(9.0, 4, freed);
  EXPECT_EQ(show(ranking), "1:3 2:1 5:0 ");
  // A newcomer goes before equal makespans: a tie with the worst evicts the
  // incumbent, and a tie inside the ranking ranks the newcomer first.
  ranking.insert(5.0, 5, freed);
  ranking.insert(2.0, 6, freed);
  EXPECT_EQ(show(ranking), "1:3 2:6 2:1 ");
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{2, 4, 0, 5}));
}

// The sorted-vector rank array the window replaced, kept as the oracle of
// Ranking::insert.
void vector_rank_insert(std::vector<Ranked>& ranking, std::size_t capacity,
                        double makespan, std::uint32_t row,
                        std::vector<std::uint32_t>& free_rows) {
  if (ranking.size() >= capacity) {
    if (makespan > ranking.back().makespan) {
      free_rows.push_back(row);
      return;
    }
    free_rows.push_back(ranking.back().row);
    ranking.pop_back();
  }
  const auto pos = std::lower_bound(
      ranking.begin(), ranking.end(), makespan,
      [](const Ranked& member, double m) { return member.makespan < m; });
  ranking.insert(pos, {makespan, row});
}

bool same_members(const Ranking& window, const std::vector<Ranked>& oracle) {
  return std::equal(window.begin(), window.end(), oracle.begin(),
                    oracle.end(), [](const Ranked& a, const Ranked& b) {
                      return a.makespan == b.makespan && a.row == b.row;
                    });
}

TEST(Population, WindowMatchesSortedVector) {
  // Makespans from a five-value set so that ties dominate, as they do in a
  // converged population; rows are unique so every order difference shows.
  constexpr double kValues[] = {1.0, 2.0, 2.5, 3.0, 7.0};
  Rng rng(20);
  std::uint32_t next_row = 0;
  std::size_t inserts = 0;
  for (const std::size_t capacity : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 100u}) {
    Ranking window(capacity);
    std::vector<Ranked> oracle;
    std::vector<std::uint32_t> window_freed;
    std::vector<std::uint32_t> oracle_freed;
    const std::size_t count = capacity == 100 ? 40000 : 10000;
    for (std::size_t i = 0; i < count; ++i, ++inserts) {
      const double makespan = kValues[rng.below(std::size(kValues))];
      window.insert(makespan, next_row, window_freed);
      vector_rank_insert(oracle, capacity, makespan, next_row, oracle_freed);
      ++next_row;
      ASSERT_TRUE(same_members(window, oracle))
          << "capacity " << capacity << ", insert " << i;
      ASSERT_EQ(window_freed, oracle_freed)
          << "capacity " << capacity << ", insert " << i;
      ASSERT_EQ(window.size(), oracle.size());
    }
  }
  EXPECT_GE(inserts, 100000u);
}

TEST(Population, WindowShiftsEitherSide) {
  // A back-half insert shifts the members behind it; a front-half insert
  // shifts the members before it. Both keep every member in rank order.
  Ranking ranking(6);
  std::vector<std::uint32_t> freed;
  for (std::uint32_t r = 0; r < 5; ++r) ranking.insert(r + 1.0, r, freed);
  ranking.insert(4.5, 5, freed);  // rank 4 of 5: the back side is shorter
  EXPECT_EQ(show(ranking), "1:0 2:1 3:2 4:3 4:5 5:4 ");
  ranking.insert(1.5, 6, freed);  // rank 1 of 6, full: front side shifts
  EXPECT_EQ(show(ranking), "1:0 1:6 2:1 3:2 4:3 4:5 ");
  EXPECT_EQ(freed, (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(ranking[1].row, 6u);
}

TEST(Population, WindowRecentresAfterFrontInserts) {
  // Each rank-0 insert into a full ranking moves the window one entry to
  // the front; after `capacity` of them the front has no spare entry left
  // and the next one re-centres the window.
  constexpr std::size_t kCapacity = 4;
  Ranking ranking(kCapacity);
  std::vector<std::uint32_t> freed;
  for (std::uint32_t r = 0; r < kCapacity; ++r) {
    ranking.insert(100.0, r, freed);
  }
  for (std::uint32_t r = kCapacity; r < 4 * kCapacity; ++r) {
    ranking.insert(100.0 - r, r, freed);
    EXPECT_EQ(ranking.front().row, r);
    EXPECT_EQ(ranking.size(), kCapacity);
  }
  EXPECT_EQ(show(ranking), "85:15 86:14 87:13 88:12 ");
  // The initial members tie, so the first one inserted ranks last and
  // leaves first; after it, each member leaves in the order it came.
  std::vector<std::uint32_t> order(3 * kCapacity);
  std::iota(order.begin(), order.end(), 0U);
  EXPECT_EQ(freed, order);
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
  EXPECT_THROW(Ranking{0}, std::invalid_argument);
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
  // Work count: every initial member is folded, and each step's three
  // newcomers are folded or inherit their parent's makespan.
  EXPECT_EQ(run.evaluations + run.inherited,
            genitor.config().population_size + 3 * run.steps_executed);
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
  // A converged population breeds copies: some newcomers skip their fold.
  EXPECT_GT(genitor.last_run().inherited, 0u);
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
  const Schedule seed = hcsched::sched::restrict_schedule(prev, next);
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
  // Every chromosome is the same, so only the initial members are folded.
  EXPECT_EQ(genitor.last_run().evaluations, 10u);
}

TEST(Genitor, GoldenNoTasks) {
  // T = 0: the iterative technique reaches a problem with no tasks when the
  // makespan machine owned every task. Every step runs and draws only its
  // three parent selections: no cut, no gene, no slot.
  const EtcMatrix m = random_matrix(2012, 24, 6);
  const Problem full = Problem::full(m);
  const Genitor genitor;
  TieBreaker ties;
  const Schedule idle = genitor.map(Problem(m, {}, full.machines()), ties);
  expect_golden(genitor, idle, {{}, 0x0ULL, 2000, 0, 0x0ULL, 0x0ULL});
  EXPECT_EQ(genitor.last_run().evaluations, 100u);
  const Schedule ready = genitor.map(
      Problem(m, {}, full.machines(), {3.5, 0.0, 12.25, 7.0, 0.0, 1.0}),
      ties);
  expect_golden(genitor, ready,
                {{}, 0x4028800000000000ULL, 2000, 0, 0x4028800000000000ULL,
                 0x4028800000000000ULL});
}

}  // namespace
