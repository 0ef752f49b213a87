#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "heuristics/fastpath/fastpath.hpp"
#include "sim/sweep.hpp"

namespace {

using hcsched::sim::run_iterative_study;
using hcsched::sim::StudyParams;
using hcsched::sim::StudyRow;
using hcsched::sim::ThreadPool;

StudyParams small_params() {
  StudyParams params;
  params.heuristics = {"MCT", "Min-Min", "Sufferage"};
  params.cvb.num_tasks = 12;
  params.cvb.num_machines = 4;
  params.trials = 10;
  params.seed = 42;
  return params;
}

TEST(Experiment, RowCountsAreConsistent) {
  ThreadPool pool(2);
  const auto rows = run_iterative_study(small_params(), pool);
  ASSERT_EQ(rows.size(), 3u);
  for (const StudyRow& row : rows) {
    EXPECT_EQ(row.trials, 10u);
    // Non-makespan machines per trial = machines - 1.
    EXPECT_EQ(row.machines_improved + row.machines_unchanged +
                  row.machines_worsened,
              10u * 3u)
        << row.heuristic;
    EXPECT_LE(row.makespan_increases, row.trials);
    EXPECT_EQ(row.original_makespan.count(), 10u);
  }
}

TEST(Experiment, TheoremHeuristicsNeverChangeUnderDeterministicTies) {
  // Min-Min / MCT with deterministic ties: every non-makespan machine's
  // finishing time is unchanged and the makespan never increases — the
  // Monte-Carlo harness must agree with the theorems.
  StudyParams params = small_params();
  params.heuristics = {"MCT", "Min-Min", "MET"};
  params.trials = 8;
  ThreadPool pool(2);
  const auto rows = run_iterative_study(params, pool);
  for (const StudyRow& row : rows) {
    EXPECT_EQ(row.machines_improved, 0u) << row.heuristic;
    EXPECT_EQ(row.machines_worsened, 0u) << row.heuristic;
    EXPECT_EQ(row.makespan_increases, 0u) << row.heuristic;
  }
}

TEST(Experiment, StudyStatisticsIdenticalUnderBothDispatchPaths) {
  // The kernels may change study wall-clock, never study statistics: the
  // reference loops (selected by the test seam, which covers the pool's
  // worker threads) must reproduce identical aggregates trial for trial.
  StudyParams params = small_params();
  params.heuristics = {"Min-Min", "Max-Min", "Duplex", "Sufferage", "KPB",
                       "SWA"};
  params.tie_policy = hcsched::rng::TiePolicy::kRandom;
  ThreadPool pool(2);
  const auto run_with = [&](bool use_kernels) {
    const hcsched::heuristics::fastpath::ScopedMode scope(use_kernels);
    return run_iterative_study(params, pool);
  };
  const auto ref = run_with(false);
  const auto fast = run_with(true);
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t h = 0; h < ref.size(); ++h) {
    EXPECT_EQ(ref[h].machines_improved, fast[h].machines_improved);
    EXPECT_EQ(ref[h].machines_unchanged, fast[h].machines_unchanged);
    EXPECT_EQ(ref[h].machines_worsened, fast[h].machines_worsened);
    EXPECT_EQ(ref[h].makespan_increases, fast[h].makespan_increases);
    EXPECT_EQ(ref[h].original_makespan.mean(),
              fast[h].original_makespan.mean())
        << ref[h].heuristic;
    EXPECT_EQ(ref[h].finish_delta.mean(), fast[h].finish_delta.mean())
        << ref[h].heuristic;
  }
}

TEST(Experiment, ResultsIndependentOfThreadCount) {
  const StudyParams params = small_params();
  ThreadPool one(1);
  ThreadPool four(4);
  const auto a = run_iterative_study(params, one);
  const auto b = run_iterative_study(params, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].machines_improved, b[i].machines_improved);
    EXPECT_EQ(a[i].machines_unchanged, b[i].machines_unchanged);
    EXPECT_EQ(a[i].machines_worsened, b[i].machines_worsened);
    EXPECT_EQ(a[i].makespan_increases, b[i].makespan_increases);
    EXPECT_NEAR(a[i].finish_delta.mean(), b[i].finish_delta.mean(), 1e-12);
    EXPECT_NEAR(a[i].original_makespan.mean(), b[i].original_makespan.mean(),
                1e-9);
  }
}

TEST(Experiment, EmptyHeuristicListThrows) {
  StudyParams params = small_params();
  params.heuristics.clear();
  ThreadPool pool(1);
  EXPECT_THROW((void)run_iterative_study(params, pool),
               std::invalid_argument);
}

TEST(Experiment, SufferageCanImproveNonMakespanMachines) {
  // The point of the paper's technique: for heuristics that do change,
  // some machines should improve across a batch of trials.
  StudyParams params = small_params();
  params.heuristics = {"Sufferage", "KPB", "SWA"};
  params.trials = 30;
  ThreadPool pool(2);
  const auto rows = run_iterative_study(params, pool);
  std::size_t total_improved = 0;
  for (const StudyRow& row : rows) total_improved += row.machines_improved;
  EXPECT_GT(total_improved, 0u);
}

TEST(Sweep, StandardGridHasTwelveCells) {
  const auto points = hcsched::sim::standard_sweep();
  ASSERT_EQ(points.size(), 12u);
  EXPECT_EQ(points.front().label, "inconsistent HiHi");
  EXPECT_EQ(points.back().label, "consistent LoLo");
}

TEST(Sweep, RunSweepAppliesPointParameters) {
  StudyParams base = small_params();
  base.heuristics = {"MCT"};
  base.trials = 2;
  std::vector<hcsched::sim::SweepPoint> points = {
      {.label = "a", .consistency = hcsched::etc::Consistency::kConsistent,
       .v_task = 0.3, .v_machine = 0.3},
      {.label = "b",
       .consistency = hcsched::etc::Consistency::kInconsistent,
       .v_task = 0.9,
       .v_machine = 0.9},
  };
  ThreadPool pool(2);
  const auto results = hcsched::sim::run_sweep(base, points, pool);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].point.label, "a");
  ASSERT_EQ(results[0].rows.size(), 1u);
  EXPECT_EQ(results[0].rows[0].trials, 2u);
}

}  // namespace
