// Cancellation contract (docs/ROBUSTNESS.md): CancelToken semantics, the
// thread-pool token install, and the anytime heuristics' guarantee that a
// cancelled budget degrades to a complete, valid best-so-far mapping —
// never a partial or invalid one.
#include "core/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/iterative.hpp"
#include "core/thread_annotations.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/genitor.hpp"
#include "heuristics/astar.hpp"
#include "heuristics/gsa.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sa.hpp"
#include "heuristics/tabu.hpp"
#include "sched/validate.hpp"
#include "sim/experiment.hpp"
#include "sim/thread_pool.hpp"

namespace {

using hcsched::core::CancelToken;
using hcsched::core::cancellation_requested;
using hcsched::core::current_cancel_token;
using hcsched::core::ScopedCancel;
using hcsched::etc::EtcMatrix;
using hcsched::sched::Problem;
using hcsched::sim::ThreadPool;

EtcMatrix random_matrix(std::uint64_t seed, std::size_t tasks = 14,
                        std::size_t machines = 4) {
  hcsched::etc::CvbParams params;
  params.num_tasks = tasks;
  params.num_machines = machines;
  hcsched::rng::Rng rng(seed);
  return hcsched::etc::CvbEtcGenerator(params).generate(rng);
}

CancelToken cancelled_token() {
  CancelToken token;
  token.request_cancel();
  return token;
}

// try_lock is the only core::Mutex entry point the pool and sinks never
// exercise; pin its contract here (success on a free mutex, failure from
// another thread while held) so the capability wrapper stays honest.
TEST(CoreMutex, TryLockReflectsContention) {
  hcsched::core::Mutex mutex;
  ASSERT_TRUE(mutex.try_lock());
  bool contended_acquired = true;
  std::thread prober(
      [&mutex, &contended_acquired] {
        contended_acquired = mutex.try_lock();
        if (contended_acquired) mutex.unlock();
      });
  prober.join();
  EXPECT_FALSE(contended_acquired);
  mutex.unlock();
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(CancelToken, FlagSemantics) {
  const CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // sticky
}

TEST(CancelToken, CopiesShareState) {
  const CancelToken token;
  const CancelToken copy = token;
  token.request_cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancelToken, DeadlineLatchesIntoFlag) {
  const CancelToken token;
  token.cancel_after(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.cancelled());

  const CancelToken future;
  future.cancel_after(std::chrono::hours(24));
  EXPECT_FALSE(future.cancelled());
}

TEST(CancelToken, ScopedInstallAndRestore) {
  EXPECT_EQ(current_cancel_token(), nullptr);
  EXPECT_FALSE(cancellation_requested());  // no token installed
  const CancelToken outer;
  {
    const ScopedCancel outer_scope(outer);
    EXPECT_EQ(current_cancel_token(), &outer);
    const CancelToken inner = cancelled_token();
    {
      const ScopedCancel inner_scope(inner);
      EXPECT_EQ(current_cancel_token(), &inner);
      EXPECT_TRUE(cancellation_requested());
    }
    EXPECT_EQ(current_cancel_token(), &outer);
    EXPECT_FALSE(cancellation_requested());
    {
      // Null install: the current token is left as-is.
      const ScopedCancel null_scope(nullptr);
      EXPECT_EQ(current_cancel_token(), &outer);
    }
    EXPECT_EQ(current_cancel_token(), &outer);
  }
  EXPECT_EQ(current_cancel_token(), nullptr);
}

TEST(CancelPool, PreCancelledTokenSkipsChunkBodies) {
  ThreadPool pool(4);
  const CancelToken token = cancelled_token();
  std::atomic<std::size_t> processed{0};
  pool.parallel_for_chunks(
      64,
      [&](std::size_t begin, std::size_t end) {
        processed.fetch_add(end - begin, std::memory_order_relaxed);
      },
      &token);
  EXPECT_EQ(processed.load(), 0u);
}

TEST(CancelPool, WorkersSeeInstalledToken) {
  ThreadPool pool(4);
  const CancelToken token;
  std::atomic<std::size_t> saw_token{0};
  pool.parallel_for_chunks(
      8,
      [&](std::size_t, std::size_t) {
        if (current_cancel_token() == &token) {
          saw_token.fetch_add(1, std::memory_order_relaxed);
        }
      },
      &token);
  EXPECT_GT(saw_token.load(), 0u);
  // The install is scoped to the chunk: this thread is clean afterwards.
  EXPECT_EQ(current_cancel_token(), nullptr);
}

TEST(CancelPool, CancelMidFlightStopsCooperativelyWithoutDeadlock) {
  // Exercised under TSan by the sanitizer matrix: a token cancelled while
  // chunks are running must wind the pool down without deadlock, dangling
  // body references, or lost chunks.
  ThreadPool pool(4);
  const CancelToken token;
  std::atomic<std::size_t> processed{0};
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.request_cancel();
  });
  pool.parallel_for_chunks(
      std::size_t{1} << 14,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          if (cancellation_requested()) return;  // cooperative poll
          processed.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(5));
        }
      },
      &token);
  canceller.join();
  EXPECT_TRUE(token.cancelled());
  // Progress was made, then stopped early (a 5us sleep per element makes
  // the full 16384-element range take ~80ms of pure sleep; the 2ms cancel
  // stops it well short).
  EXPECT_LT(processed.load(), std::size_t{1} << 14);
}

// -- anytime heuristics: cancelled budget -> valid best-so-far -------------

TEST(CancelHeuristics, SaReturnsSeedMappingWhenPreCancelled) {
  const EtcMatrix m = random_matrix(11);
  const Problem problem = Problem::full(m);
  hcsched::heuristics::MinMin minmin;
  hcsched::rng::TieBreaker det;
  const auto minmin_schedule = minmin.map(problem, det);

  const CancelToken token = cancelled_token();
  const ScopedCancel scope(token);
  const hcsched::heuristics::SimulatedAnnealing sa;
  hcsched::rng::TieBreaker ties;
  const auto schedule = sa.map(problem, ties);
  // Zero annealing steps ran, so the result is exactly the Min-Min seed.
  EXPECT_TRUE(hcsched::sched::is_valid(schedule));
  EXPECT_DOUBLE_EQ(schedule.makespan(), minmin_schedule.makespan());
  for (const auto task : problem.tasks()) {
    EXPECT_EQ(schedule.machine_of(task), minmin_schedule.machine_of(task));
  }
}

TEST(CancelHeuristics, TabuReturnsValidMappingWhenPreCancelled) {
  const EtcMatrix m = random_matrix(12);
  const Problem problem = Problem::full(m);
  const CancelToken token = cancelled_token();
  const ScopedCancel scope(token);
  const hcsched::heuristics::TabuSearch tabu;
  hcsched::rng::TieBreaker ties;
  const auto schedule = tabu.map(problem, ties);
  EXPECT_TRUE(hcsched::sched::is_valid(schedule));
  EXPECT_EQ(schedule.num_assigned(), problem.num_tasks());
}

TEST(CancelHeuristics, GenitorExecutesZeroStepsWhenPreCancelled) {
  const EtcMatrix m = random_matrix(13);
  const Problem problem = Problem::full(m);
  const CancelToken token = cancelled_token();
  const ScopedCancel scope(token);
  const hcsched::ga::Genitor genitor;
  hcsched::rng::TieBreaker ties;
  const auto schedule = genitor.map(problem, ties);
  EXPECT_TRUE(hcsched::sched::is_valid(schedule));
  EXPECT_EQ(genitor.last_run().steps_executed, 0u);
  // Elitism holds even under cancellation: the best initial member (the
  // Min-Min seed or better) is returned.
  hcsched::heuristics::MinMin minmin;
  hcsched::rng::TieBreaker det;
  EXPECT_LE(schedule.makespan(), minmin.map(problem, det).makespan() + 1e-9);
}

TEST(CancelHeuristics, GsaReturnsValidMappingWhenPreCancelled) {
  const EtcMatrix m = random_matrix(14);
  const Problem problem = Problem::full(m);
  const CancelToken token = cancelled_token();
  const ScopedCancel scope(token);
  const hcsched::heuristics::Gsa gsa;
  hcsched::rng::TieBreaker ties;
  const auto schedule = gsa.map(problem, ties);
  EXPECT_TRUE(hcsched::sched::is_valid(schedule));
}

TEST(CancelHeuristics, AStarFallsBackToCompleteGreedyMapping) {
  const EtcMatrix m = random_matrix(15);
  const Problem problem = Problem::full(m);
  const CancelToken token = cancelled_token();
  const ScopedCancel scope(token);
  const hcsched::heuristics::AStar astar;
  hcsched::rng::TieBreaker ties;
  const auto schedule = astar.map(problem, ties);
  EXPECT_TRUE(hcsched::sched::is_valid(schedule));
  EXPECT_EQ(schedule.num_assigned(), problem.num_tasks());
}

TEST(CancelHeuristics, DeadlineBudgetStopsLongSaRun) {
  // A wall-clock budget, not a pre-cancelled flag: configure SA for an
  // effectively unbounded walk, give it a tiny budget, and require a valid
  // result promptly. Generous bounds — this guards "terminates and stays
  // valid", not a latency target.
  const EtcMatrix m = random_matrix(3, 24, 5);
  const Problem problem = Problem::full(m);
  hcsched::heuristics::SaConfig config;
  config.steps = 500'000'000;  // hours, if not cancelled
  config.cooling = 0.999999999;
  const hcsched::heuristics::SimulatedAnnealing sa(config);
  const CancelToken token;
  token.cancel_after(std::chrono::milliseconds(50));
  const ScopedCancel scope(token);
  hcsched::rng::TieBreaker ties;
  const auto start = std::chrono::steady_clock::now();
  const auto schedule = sa.map(problem, ties);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(hcsched::sched::is_valid(schedule));
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// -- iterative core and study-level cancellation ---------------------------

TEST(CancelIterative, CancellationIsTerminalIteration) {
  const EtcMatrix m = random_matrix(16);
  const Problem problem = Problem::full(m);
  const CancelToken token = cancelled_token();
  const ScopedCancel scope(token);
  const hcsched::core::IterativeMinimizer minimizer;
  hcsched::heuristics::MinMin minmin;
  hcsched::rng::TieBreaker ties;
  const auto result = minimizer.run(minmin, problem, ties);
  // The first mapping became terminal: one iteration, every machine frozen
  // at its completion time under that mapping.
  ASSERT_EQ(result.iterations.size(), 1u);
  for (const auto& [machine, finish] : result.final_finishing_times) {
    EXPECT_DOUBLE_EQ(finish,
                     result.original().schedule.completion_time(machine));
  }
  EXPECT_FALSE(result.makespan_increased());
}

TEST(CancelStudy, PreCancelledTokenYieldsEmptyCancelledReport) {
  hcsched::sim::StudyParams params;
  params.heuristics = {"MCT", "Min-Min"};
  params.cvb.num_tasks = 10;
  params.cvb.num_machines = 3;
  params.trials = 6;
  params.seed = 21;
  ThreadPool pool(2);
  const CancelToken token = cancelled_token();
  hcsched::sim::StudyHooks hooks;
  hooks.cancel = &token;
  const auto report =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.trials_completed, 0u);
  EXPECT_EQ(report.trials_requested, params.trials);
  for (const auto& row : report.rows) EXPECT_EQ(row.trials, 0u);
}

TEST(CancelStudy, UncancelledTokenChangesNothing) {
  hcsched::sim::StudyParams params;
  params.heuristics = {"MCT", "Min-Min"};
  params.cvb.num_tasks = 10;
  params.cvb.num_machines = 3;
  params.trials = 6;
  params.seed = 21;
  ThreadPool pool(2);
  const auto clean = hcsched::sim::run_iterative_study_report(params, pool);
  const CancelToken token;
  hcsched::sim::StudyHooks hooks;
  hooks.cancel = &token;
  const auto report =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_FALSE(report.cancelled);
  ASSERT_EQ(report.rows.size(), clean.rows.size());
  for (std::size_t h = 0; h < report.rows.size(); ++h) {
    EXPECT_EQ(report.rows[h].trials, clean.rows[h].trials);
    EXPECT_EQ(report.rows[h].finish_delta.mean(),
              clean.rows[h].finish_delta.mean());
  }
}

}  // namespace
