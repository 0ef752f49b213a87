// Operation counters: thread-local buffers must be additive across pool
// threads, the NVI wrapper must count and time heuristic invocations, the
// pool's histograms are the registry's instruments, zeroed by the one
// reset, and the catalog is the exposition's one `_total` family. Also the
// count, sum and max a MetricHistogram keeps for every timing.
//
// Counter tests reset global state, so they would race any concurrently
// counting test; gtest runs tests in one thread, and the pools joined here
// flush before assertions read the table.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/paper_examples.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "rng/tie_break.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace hcsched;

TEST(Counters, AdditiveAcrossPoolThreads) {
  EXPECT_EQ(&obs::pool_wait_histogram(),
            &obs::metrics::histogram("hcsched_pool_wait_ns"));
  EXPECT_EQ(&obs::pool_run_histogram(),
            &obs::metrics::histogram("hcsched_pool_run_ns"));
  obs::counters::reset();
  constexpr std::uint64_t kJobs = 64;
  constexpr std::uint64_t kPerJob = 3;
  {
    sim::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    futures.reserve(kJobs);
    for (std::uint64_t i = 0; i < kJobs; ++i) {
      futures.push_back(pool.submit(
          [] { obs::counters::add(obs::Counter::kGaSteps, kPerJob); }));
    }
    for (auto& f : futures) f.get();
  }  // joining the pool flushes every worker's buffer

  const auto snap = obs::counters::snapshot();
  EXPECT_EQ(snap[obs::Counter::kGaSteps], kJobs * kPerJob);
  if (obs::kTraceCompiledIn) {
    EXPECT_EQ(snap[obs::Counter::kPoolTasksSubmitted], kJobs);
    EXPECT_EQ(snap[obs::Counter::kPoolTasksCompleted], kJobs);
    EXPECT_EQ(obs::pool_wait_histogram().count(), kJobs);
    EXPECT_EQ(obs::pool_run_histogram().count(), kJobs);
  }
  // The one reset zeroes the pool's histograms along with the counters.
  obs::counters::reset();
  for (obs::MetricHistogram* h :
       {&obs::pool_wait_histogram(), &obs::pool_run_histogram()}) {
    EXPECT_EQ(h->count(), 0u);
    EXPECT_EQ(h->max_ns(), 0u);
  }
}

TEST(Counters, HeuristicInvocationsCountedThroughNvi) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  obs::counters::reset();
  const auto ex = core::minmin_example();
  const auto heuristic = heuristics::make_heuristic(ex.heuristic);
  const sched::Problem problem = sched::Problem::full(*ex.matrix);
  rng::TieBreaker ties;
  heuristic->map(problem, ties);
  heuristic->map(problem, ties);

  const auto snap = obs::counters::snapshot();
  EXPECT_EQ(snap[obs::Counter::kHeuristicInvocations], 2u);
  EXPECT_GT(snap[obs::Counter::kEtcCellEvaluations], 0u);
  EXPECT_GT(snap[obs::Counter::kTieDecisions], 0u);

  const obs::MetricHistogram& map =
      obs::metrics::histogram("hcsched_heuristic_map_ns");
  EXPECT_EQ(map.count(), 2u);
  EXPECT_GT(map.sum(), 0u);
  EXPECT_GE(map.sum(), map.max_ns());
}

TEST(Counters, IterativeRunCountsIterations) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  obs::counters::reset();
  const auto result = core::run_paper_example(core::minmin_example());
  const auto snap = obs::counters::snapshot();
  EXPECT_EQ(snap[obs::Counter::kIterativeRuns], 1u);
  EXPECT_EQ(snap[obs::Counter::kIterativeIterations],
            result.iterations.size());
}

TEST(Counters, SnapshotDeltaSaturatesAtZero) {
  obs::counters::reset();
  obs::counters::add(obs::Counter::kGaMutations, 5);
  const auto before = obs::counters::snapshot();
  obs::counters::add(obs::Counter::kGaMutations, 2);
  const auto after = obs::counters::snapshot();

  EXPECT_EQ(after.delta_since(before)[obs::Counter::kGaMutations], 2u);
  // Reversed order saturates instead of wrapping.
  EXPECT_EQ(before.delta_since(after)[obs::Counter::kGaMutations], 0u);
}

TEST(Counters, SnapshotSerializesEveryCounter) {
  obs::counters::reset();
  obs::counters::add(obs::Counter::kSearchNodesExpanded, 7);
  const auto json = obs::counters::snapshot().to_json();
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.as_object().size(), obs::kNumCounters);
  EXPECT_DOUBLE_EQ(json.at("search_nodes_expanded").as_number(), 7.0);

  // The global exposition renders the catalog as the one `_total` family;
  // the registry itself has no counter kind to add another.
  const std::string text = obs::metrics::prometheus_text();
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const std::string sample =
        "hcsched_ops_total{op=\"" +
        std::string(obs::to_string(static_cast<obs::Counter>(i))) + "\"} ";
    const std::size_t at = text.find(sample);
    ASSERT_NE(at, std::string::npos) << sample;
    EXPECT_EQ(text.find(sample, at + 1), std::string::npos) << sample;
  }
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.find("_total") == std::string::npos) continue;
    EXPECT_TRUE(line.rfind("hcsched_ops_total{op=\"", 0) == 0 ||
                line.rfind("# HELP hcsched_ops_total ", 0) == 0 ||
                line == "# TYPE hcsched_ops_total counter")
        << line;
  }
}

TEST(MetricHistogramAggregates, TrackCountSumAndMaxUntilReset) {
  obs::MetricHistogram hist;
  hist.observe(0);
  hist.observe(10);
  hist.observe(1000);
  hist.observe(1'000'000);

  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.sum(), 1'001'010u);
  EXPECT_EQ(hist.max_ns(), 1'000'000u);
  // A smaller observation after the max leaves it in place.
  hist.observe(5);
  EXPECT_EQ(hist.max_ns(), 1'000'000u);

  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.max_ns(), 0u);
}

}  // namespace
