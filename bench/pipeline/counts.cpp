#include "counts.hpp"

#include "obs/counters.hpp"

namespace hcsched::bench::pipeline {

obs::JsonValue WorkCounts::to_json() const {
  return obs::JsonValue(obs::JsonValue::Object{
      {"map_calls", obs::JsonValue(map_calls)},
      {"etc_cells", obs::JsonValue(etc_cells)},
      {"ga_steps", obs::JsonValue(ga_steps)},
      {"iterative_runs", obs::JsonValue(iterative_runs)},
      {"iterative_iterations", obs::JsonValue(iterative_iterations)},
      {"pool_jobs", obs::JsonValue(pool_jobs)},
      {"fastpath_rescores", obs::JsonValue(fastpath_rescores)},
      {"fastpath_replays", obs::JsonValue(fastpath_replays)},
      {"checkpoint_written", obs::JsonValue(checkpoint_written)},
      {"checkpoint_replayed", obs::JsonValue(checkpoint_replayed)}});
}

WorkCounts read_work_counts() {
  using obs::Counter;
  const obs::counters::Snapshot s = obs::counters::snapshot();
  return WorkCounts{
      .map_calls = s[Counter::kHeuristicInvocations],
      .etc_cells = s[Counter::kEtcCellEvaluations],
      .ga_steps = s[Counter::kGaSteps],
      .iterative_runs = s[Counter::kIterativeRuns],
      .iterative_iterations = s[Counter::kIterativeIterations],
      .pool_jobs = s[Counter::kPoolTasksSubmitted],
      .fastpath_rescores = s[Counter::kFastpathRescores],
      .fastpath_replays = s[Counter::kFastpathReplays],
      .checkpoint_written = s[Counter::kCheckpointTrialsWritten],
      .checkpoint_replayed = s[Counter::kCheckpointTrialsReplayed]};
}

WorkCounts operator-(const WorkCounts& a, const WorkCounts& b) {
  return WorkCounts{
      .map_calls = a.map_calls - b.map_calls,
      .etc_cells = a.etc_cells - b.etc_cells,
      .ga_steps = a.ga_steps - b.ga_steps,
      .iterative_runs = a.iterative_runs - b.iterative_runs,
      .iterative_iterations = a.iterative_iterations - b.iterative_iterations,
      .pool_jobs = a.pool_jobs - b.pool_jobs,
      .fastpath_rescores = a.fastpath_rescores - b.fastpath_rescores,
      .fastpath_replays = a.fastpath_replays - b.fastpath_replays,
      .checkpoint_written = a.checkpoint_written - b.checkpoint_written,
      .checkpoint_replayed = a.checkpoint_replayed - b.checkpoint_replayed};
}

void reset_counts() { obs::counters::reset(); }

double pool_wait_max_us() {
  return static_cast<double>(obs::pool_wait_histogram().max_ns()) * 1e-3;
}

}  // namespace hcsched::bench::pipeline
