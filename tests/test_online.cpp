#include "sim/online.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "etc/cvb_generator.hpp"
#include "heuristics/mct.hpp"

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sim::make_arrival_stream;
using hcsched::sim::OnlineConfig;
using hcsched::sim::OnlineDispatcher;
using hcsched::sim::OnlinePolicy;
using hcsched::sim::OnlineResult;
using hcsched::sim::OnlineTask;

EtcMatrix small_matrix() {
  return EtcMatrix::from_rows({{2, 5}, {4, 1}, {3, 3}});
}

TEST(Online, MctDispatchesToEarliestCompletion) {
  OnlineDispatcher dispatcher(OnlineConfig{.policy = OnlinePolicy::kMct});
  const EtcMatrix m = small_matrix();
  const std::vector<OnlineTask> stream = {
      {0, 0.0}, {1, 0.0}, {2, 0.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {0.0, 0.0}, ties);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0].machine, 0);  // t0: 2 vs 5
  EXPECT_EQ(r.records[1].machine, 1);  // t1: 2+4 vs 1
  EXPECT_EQ(r.records[2].machine, 1);  // t2: 2+3=5 vs 1+3=4
  EXPECT_DOUBLE_EQ(r.makespan(), 4.0);
}

TEST(Online, ArrivalGatesStartTime) {
  OnlineDispatcher dispatcher;
  const EtcMatrix m = small_matrix();
  const std::vector<OnlineTask> stream = {{0, 10.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {0.0, 0.0}, ties);
  EXPECT_DOUBLE_EQ(r.records[0].start, 10.0);
  EXPECT_DOUBLE_EQ(r.records[0].finish, 12.0);
}

TEST(Online, InitialReadyVectorIsHonored) {
  OnlineDispatcher dispatcher;
  const EtcMatrix m = small_matrix();
  const std::vector<OnlineTask> stream = {{0, 0.0}};
  TieBreaker ties;
  // m0 busy until 100 -> MCT prefers m1 despite larger ETC.
  const OnlineResult r = dispatcher.run(m, stream, {100.0, 0.0}, ties);
  EXPECT_EQ(r.records[0].machine, 1);
  EXPECT_DOUBLE_EQ(r.records[0].finish, 5.0);
}

TEST(Online, MetIgnoresLoad) {
  OnlineDispatcher dispatcher(OnlineConfig{.policy = OnlinePolicy::kMet});
  const EtcMatrix m = EtcMatrix::from_rows({{1, 9}});
  const std::vector<OnlineTask> stream = {{0, 0.0}, {0, 0.0}, {0, 0.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {0.0, 0.0}, ties);
  for (const auto& rec : r.records) EXPECT_EQ(rec.machine, 0);
  EXPECT_DOUBLE_EQ(r.makespan(), 3.0);
}

TEST(Online, OlbBalancesIgnoringEtc) {
  OnlineDispatcher dispatcher(OnlineConfig{.policy = OnlinePolicy::kOlb});
  const EtcMatrix m = EtcMatrix::from_rows({{1, 100}});
  const std::vector<OnlineTask> stream = {{0, 0.0}, {0, 0.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {0.0, 0.0}, ties);
  EXPECT_EQ(r.records[0].machine, 0);
  EXPECT_EQ(r.records[1].machine, 1);  // m0 now busy; OLB ignores the 100
}

TEST(Online, KpbRestrictsToSubset) {
  OnlineDispatcher dispatcher(
      OnlineConfig{.policy = OnlinePolicy::kKpb, .kpb_percent = 70.0});
  // Best two of three machines by ETC are m0/m1; m2 is idle but excluded.
  const EtcMatrix m = EtcMatrix::from_rows({{5, 6, 7}});
  const std::vector<OnlineTask> stream = {{0, 0.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {10.0, 10.0, 0.0}, ties);
  EXPECT_NE(r.records[0].machine, 2);
}

TEST(Online, SwaSwitchesModes) {
  OnlineDispatcher dispatcher(OnlineConfig{.policy = OnlinePolicy::kSwa,
                                           .swa_low = 0.35,
                                           .swa_high = 0.49});
  // Balanced after two dispatches -> BI = 1 -> MET for the third.
  const EtcMatrix m = EtcMatrix::from_rows({
      {2, 9},
      {9, 2},
      {5, 9},
  });
  const std::vector<OnlineTask> stream = {{0, 0.0}, {1, 0.0}, {2, 0.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {0.0, 0.0}, ties);
  EXPECT_EQ(r.records[2].machine, 0);  // MET choice (ETC 5 < 9)
}

TEST(Online, RejectsBadInput) {
  OnlineDispatcher dispatcher;
  const EtcMatrix m = small_matrix();
  TieBreaker ties;
  EXPECT_THROW((void)dispatcher.run(m, {{0, 0.0}}, {0.0}, ties),
               std::invalid_argument);  // ready size mismatch
  EXPECT_THROW((void)dispatcher.run(m, {{9, 0.0}}, {0.0, 0.0}, ties),
               std::out_of_range);  // task id outside matrix
  EXPECT_THROW(
      (void)dispatcher.run(m, {{0, 5.0}, {1, 1.0}}, {0.0, 0.0}, ties),
      std::invalid_argument);  // unordered arrivals
  // An infinite arrival once made every score inf, so choose_min found no
  // tied slot and the task was mapped onto machine -1; a NaN one passed the
  // ordering check (every comparison with NaN is false).
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(
        (void)dispatcher.run(m, {{0, 1.0}, {1, bad}}, {0.0, 0.0}, ties),
        std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(OnlineDispatcher(OnlineConfig{.kpb_percent = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(
      OnlineDispatcher(OnlineConfig{.swa_low = 0.9, .swa_high = 0.1}),
      std::invalid_argument);
}

TEST(Online, FlowTimeMetric) {
  OnlineDispatcher dispatcher;
  const EtcMatrix m = EtcMatrix::from_rows({{2, 9}});
  const std::vector<OnlineTask> stream = {{0, 1.0}, {0, 1.0}};
  TieBreaker ties;
  const OnlineResult r = dispatcher.run(m, stream, {0.0, 0.0}, ties);
  // First: start 1, finish 3, flow 2. Second: m0 busy until 3 -> CT 5 vs
  // m1 at 1+9 = 10 -> m0, flow 4. Mean = 3.
  EXPECT_DOUBLE_EQ(r.mean_flow_time(), 3.0);
}

TEST(Online, ArrivalStreamIsOrderedAndSized) {
  Rng rng(5);
  const auto stream = make_arrival_stream(100, 2.0, 7, rng);
  ASSERT_EQ(stream.size(), 100u);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GE(stream[i].arrival, stream[i - 1].arrival);
  }
  for (const auto& t : stream) {
    EXPECT_GE(t.task, 0);
    EXPECT_LT(t.task, 7);
  }
  // Mean gap sanity (exponential with mean 2).
  const double total = stream.back().arrival;
  EXPECT_NEAR(total / 100.0, 2.0, 0.8);
}

TEST(Online, StreamRequiresNonEmptyMatrix) {
  Rng rng(6);
  EXPECT_THROW((void)make_arrival_stream(5, 1.0, 0, rng),
               std::invalid_argument);
}

TEST(Online, StreamRejectsNonFiniteOrNegativeMeanGap) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    Rng rng(6);
    EXPECT_THROW((void)make_arrival_stream(5, bad, 3, rng),
                 std::invalid_argument)
        << bad;
  }
  Rng rng(6);
  EXPECT_EQ(make_arrival_stream(5, 0.0, 3, rng).back().arrival, 0.0);
}

TEST(Online, ZeroArrivalsMakeImmediateMctEqualBatchStaticMct) {
  // With every arrival at t = 0 and idle machines, immediate-mode MCT is
  // exactly the static MCT list heuristic.
  Rng rng(42);
  hcsched::etc::CvbParams params;
  params.num_tasks = 15;
  params.num_machines = 5;
  const EtcMatrix m = hcsched::etc::CvbEtcGenerator(params).generate(rng);
  std::vector<OnlineTask> stream;
  for (int t = 0; t < 15; ++t) stream.push_back({t, 0.0});
  OnlineDispatcher dispatcher(OnlineConfig{.policy = OnlinePolicy::kMct});
  TieBreaker t1;
  const OnlineResult online = dispatcher.run(m, stream, std::vector<double>(5, 0.0), t1);

  hcsched::heuristics::Mct mct;
  TieBreaker t2;
  const auto batch =
      mct.map(hcsched::sched::Problem::full(m), t2);
  for (const auto& rec : online.records) {
    EXPECT_EQ(rec.machine, *batch.machine_of(rec.task)) << rec.task;
  }
  EXPECT_DOUBLE_EQ(online.makespan(), batch.makespan());
}

TEST(Online, BetterInitialAvailabilityNeverHurtsMct) {
  // Lowering every machine's initial ready time can only improve MCT's
  // online completions (monotonicity of the dispatch recursion).
  Rng rng(7);
  hcsched::etc::CvbParams params;
  params.num_tasks = 10;
  params.num_machines = 4;
  const EtcMatrix m = hcsched::etc::CvbEtcGenerator(params).generate(rng);
  const auto stream = make_arrival_stream(40, 50.0, 10, rng);
  OnlineDispatcher dispatcher;
  TieBreaker t1;
  TieBreaker t2;
  const OnlineResult slow =
      dispatcher.run(m, stream, {500.0, 500.0, 500.0, 500.0}, t1);
  const OnlineResult fast =
      dispatcher.run(m, stream, {100.0, 100.0, 100.0, 100.0}, t2);
  EXPECT_LE(fast.mean_flow_time(), slow.mean_flow_time() + 1e-9);
  EXPECT_LE(fast.makespan(), slow.makespan() + 1e-9);
}

}  // namespace
