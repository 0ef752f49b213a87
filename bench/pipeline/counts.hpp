// The benchmark's only reader of the library's operation counters and
// thread-pool histograms (src/obs/counters.hpp), so a change of counter API
// touches this file alone. Every count here is added inside a pool chunk's
// CounterScope or on the calling thread, so a snapshot taken after a study
// returns holds all of that study's counts.
#pragma once

#include <cstdint>

#include "obs/json.hpp"

namespace hcsched::bench::pipeline {

struct WorkCounts {
  std::uint64_t map_calls = 0;             ///< Heuristic::map / map_seeded
  std::uint64_t etc_cells = 0;             ///< ETC cells scored by heuristics
  std::uint64_t ga_steps = 0;              ///< Genitor steady-state steps
  std::uint64_t iterative_runs = 0;        ///< IterativeMinimizer::run
  std::uint64_t iterative_iterations = 0;  ///< rounds over all runs
  std::uint64_t pool_jobs = 0;             ///< ThreadPool::submit
  std::uint64_t fastpath_rescores = 0;     ///< kernel full task rescores
  std::uint64_t fastpath_replays = 0;      ///< kernel cached replays
  std::uint64_t checkpoint_written = 0;    ///< trials appended
  std::uint64_t checkpoint_replayed = 0;   ///< trials resumed

  bool operator==(const WorkCounts&) const = default;
  obs::JsonValue to_json() const;
};

/// The counters' current totals.
WorkCounts read_work_counts();

/// Per-counter difference a - b.
WorkCounts operator-(const WorkCounts& a, const WorkCounts& b);

/// Zeros the counters and the thread-pool histograms.
void reset_counts();

/// Longest pool queue wait since reset_counts(), in microseconds.
double pool_wait_max_us();

}  // namespace hcsched::bench::pipeline
