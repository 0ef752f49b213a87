// Tests for the search-based baselines (SA, GSA, Tabu) and Segmented
// Min-Min (Wu & Shu, cited as [18] in the paper).
#include <gtest/gtest.h>

#include <limits>

#include "etc/cvb_generator.hpp"
#include "heuristics/gsa.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/sa.hpp"
#include "heuristics/segmented.hpp"
#include "heuristics/tabu.hpp"
#include "sched/validate.hpp"

namespace {

using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::ga::Chromosome;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

EtcMatrix random_matrix(std::uint64_t seed, std::size_t tasks = 20,
                        std::size_t machines = 5) {
  Rng rng(seed);
  CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return CvbEtcGenerator(p).generate(rng);
}

TEST(SimulatedAnnealing, NeverWorseThanItsMinMinStart) {
  hcsched::heuristics::SimulatedAnnealing sa;
  hcsched::heuristics::MinMin minmin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EtcMatrix m = random_matrix(seed);
    TieBreaker t1;
    TieBreaker t2;
    EXPECT_LE(sa.map(Problem::full(m), t1).makespan(),
              minmin.map(Problem::full(m), t2).makespan() + 1e-9)
        << "seed " << seed;
  }
}

TEST(SimulatedAnnealing, ImprovesARandomStart) {
  hcsched::heuristics::SaConfig cfg;
  cfg.seed_with_minmin = false;
  cfg.steps = 6000;
  const hcsched::heuristics::SimulatedAnnealing sa(cfg);
  const EtcMatrix m = random_matrix(9, 30, 6);
  const Problem p = Problem::full(m);
  TieBreaker ties;
  const double span = sa.map(p, ties).makespan();
  // A random mapping on 6 machines averages far above the balanced level;
  // SA must land well below the all-on-one-machine scale.
  Rng rng(123);
  const double random_span =
      hcsched::ga::Evaluator(p).makespan(Chromosome::random(p, rng).genes());
  EXPECT_LT(span, random_span);
}

TEST(SimulatedAnnealing, RejectsBadCooling) {
  hcsched::heuristics::SaConfig cfg;
  cfg.cooling = 1.0;
  EXPECT_THROW(hcsched::heuristics::SimulatedAnnealing{cfg},
               std::invalid_argument);
  cfg.cooling = 0.0;
  EXPECT_THROW(hcsched::heuristics::SimulatedAnnealing{cfg},
               std::invalid_argument);
  // NaN fails closed instead of silently running zero steps.
  cfg.cooling = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(hcsched::heuristics::SimulatedAnnealing{cfg},
               std::invalid_argument);
}

TEST(Gsa, NeverWorseThanItsMinMinSeedAndValid) {
  hcsched::heuristics::Gsa gsa;
  hcsched::heuristics::MinMin minmin;
  const EtcMatrix m = random_matrix(3);
  TieBreaker t1;
  TieBreaker t2;
  const Schedule s = gsa.map(Problem::full(m), t1);
  EXPECT_LE(s.makespan(),
            minmin.map(Problem::full(m), t2).makespan() + 1e-9);
  EXPECT_TRUE(hcsched::sched::is_valid(s));
}

TEST(Gsa, RejectsBadConfig) {
  hcsched::heuristics::GsaConfig cfg;
  cfg.population_size = 1;
  EXPECT_THROW(hcsched::heuristics::Gsa{cfg}, std::invalid_argument);
  cfg.population_size = 10;
  cfg.cooling = 1.5;
  EXPECT_THROW(hcsched::heuristics::Gsa{cfg}, std::invalid_argument);
  cfg.cooling = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(hcsched::heuristics::Gsa{cfg}, std::invalid_argument);
}

TEST(TabuSearch, HammingDistance) {
  const Chromosome a(std::vector<std::uint32_t>{0, 1, 2, 0});
  const Chromosome b(std::vector<std::uint32_t>{0, 2, 2, 1});
  EXPECT_EQ(hcsched::heuristics::hamming_distance(a, b), 2u);
  EXPECT_EQ(hcsched::heuristics::hamming_distance(a, a), 0u);
  const Chromosome c(std::vector<std::uint32_t>{0});
  EXPECT_THROW((void)hcsched::heuristics::hamming_distance(a, c),
               std::invalid_argument);
}

TEST(TabuSearch, DescendsToALocalMinimum) {
  // From a Min-Min start, tabu's short hops can only improve; the result
  // must have no improving single-task move (check a few moves by hand).
  hcsched::heuristics::TabuSearch tabu;
  hcsched::heuristics::MinMin minmin;
  const EtcMatrix m = random_matrix(11, 16, 4);
  const Problem p = Problem::full(m);
  TieBreaker t1;
  TieBreaker t2;
  const double tabu_span = tabu.map(p, t1).makespan();
  const double mm_span = minmin.map(p, t2).makespan();
  EXPECT_LE(tabu_span, mm_span + 1e-9);
}

TEST(TabuSearch, SingleMachineDegenerates) {
  const EtcMatrix m = EtcMatrix::from_rows({{2}, {3}});
  hcsched::heuristics::TabuSearch tabu;
  TieBreaker ties;
  const Schedule s = tabu.map(Problem::full(m), ties);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  EXPECT_TRUE(hcsched::sched::is_valid(s));
}

TEST(SegmentedMinMin, OneSegmentEqualsMinMinOnContinuousInput) {
  hcsched::heuristics::SegmentedMinMin smm(1);
  hcsched::heuristics::MinMin minmin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EtcMatrix m = random_matrix(seed + 40);
    TieBreaker t1;
    TieBreaker t2;
    const Schedule a = smm.map(Problem::full(m), t1);
    const Schedule b = minmin.map(Problem::full(m), t2);
    EXPECT_TRUE(a.same_mapping(b)) << "seed " << seed;
  }
}

TEST(SegmentedMinMin, RejectsZeroSegments) {
  EXPECT_THROW(hcsched::heuristics::SegmentedMinMin(0),
               std::invalid_argument);
}

TEST(SegmentedMinMin, PlacesLongTasksFirst) {
  // One long task + fillers: segmented (by average, 2 segments) maps the
  // long task within the first segment — while the suite is still lightly
  // loaded — beating plain Min-Min's makespan (9 vs 12, hand-traced).
  const EtcMatrix m =
      EtcMatrix::from_rows({{8, 9}, {2, 3}, {2, 3}, {2, 3}});
  hcsched::heuristics::SegmentedMinMin smm(2);
  hcsched::heuristics::MinMin minmin;
  TieBreaker t1;
  TieBreaker t2;
  const Schedule a = smm.map(Problem::full(m), t1);
  const Schedule b = minmin.map(Problem::full(m), t2);
  // The long task t0 is in segment one (first two assignments).
  EXPECT_TRUE(a.assignment_order()[0].task == 0 ||
              a.assignment_order()[1].task == 0);
  EXPECT_DOUBLE_EQ(a.makespan(), 9.0);
  EXPECT_DOUBLE_EQ(b.makespan(), 12.0);
}

TEST(SegmentedMinMin, AllKeysProduceValidCompleteSchedules) {
  using hcsched::heuristics::SegmentKey;
  const EtcMatrix m = random_matrix(55, 23, 5);  // non-divisible segments
  for (SegmentKey key :
       {SegmentKey::kAverage, SegmentKey::kMin, SegmentKey::kMax}) {
    hcsched::heuristics::SegmentedMinMin smm(4, key);
    TieBreaker ties;
    const Schedule s = smm.map(Problem::full(m), ties);
    EXPECT_TRUE(s.complete());
    EXPECT_TRUE(hcsched::sched::is_valid(s));
  }
}

TEST(SegmentedMinMin, MoreSegmentsThanTasksClamps) {
  const EtcMatrix m = random_matrix(66, 3, 2);
  hcsched::heuristics::SegmentedMinMin smm(10);
  TieBreaker ties;
  const Schedule s = smm.map(Problem::full(m), ties);
  EXPECT_TRUE(s.complete());
  EXPECT_TRUE(hcsched::sched::is_valid(s));
}

TEST(SearchHeuristics, ReproducibleRunToRun) {
  const EtcMatrix m = random_matrix(77, 15, 4);
  const Problem p = Problem::full(m);
  for (const char* name : {"SA", "GSA", "Tabu"}) {
    const auto h1 = hcsched::heuristics::make_heuristic(name);
    const auto h2 = hcsched::heuristics::make_heuristic(name);
    TieBreaker t1;
    TieBreaker t2;
    EXPECT_TRUE(h1->map(p, t1).same_mapping(h2->map(p, t2))) << name;
  }
}

}  // namespace
