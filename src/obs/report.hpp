// Run-report builder over the observability pillars.
//
// Snapshots everything one run of the iterative technique produced into a
// single JSON-ready document: per-iteration scheduler state (machine
// removed, frozen completion time, completion-time vector, balance index —
// the paper's per-iteration trajectory), the final finishing times, the
// operation-counter snapshot and the heuristic-map latency totals. The CLI
// `report` subcommand pretty-prints it; the production_pipeline example and
// the sim layer attach it per trial.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/iterative.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace hcsched::obs {

/// One iteration of the technique, summarized for reporting.
struct IterationSummary {
  std::size_t index = 0;
  std::size_t num_tasks = 0;
  std::size_t num_machines = 0;
  double makespan = 0.0;
  /// Machine whose finishing time was frozen and removed after this
  /// iteration; -1 for the terminal iteration (nothing removed).
  sched::MachineId removed_machine = -1;
  /// The removed machine's frozen completion time (== makespan) for
  /// non-terminal iterations; 0 otherwise.
  double frozen_completion_time = 0.0;
  /// min(CT)/max(CT) over this iteration's machines (SWA's balance index).
  double balance_index = 0.0;
  /// (machine, completion time) for every machine alive this iteration.
  std::vector<std::pair<sched::MachineId, double>> completion_times{};
};

struct RunReport {
  std::string heuristic{};
  std::size_t num_tasks = 0;
  std::size_t num_machines = 0;
  double original_makespan = 0.0;
  double final_makespan = 0.0;
  bool makespan_increased = false;
  std::vector<IterationSummary> iterations{};
  /// (machine, final finishing time), initial machine order.
  std::vector<std::pair<sched::MachineId, double>> final_finishing_times{};
  /// Counter values at build time (whole-process; use
  /// counters::Snapshot::delta_since to scope to one run).
  counters::Snapshot counters{};
  /// `hcsched_heuristic_map_ns` at build time, whole-process like
  /// `counters`. Per-heuristic time is in the `map:<H>` span profile.
  std::uint64_t map_calls = 0;
  std::uint64_t map_total_ns = 0;
  std::uint64_t map_max_ns = 0;
};

/// Builds the report from a finished IterativeResult, snapshotting the
/// global counters and the heuristic-map latency histogram.
RunReport build_run_report(std::string_view heuristic,
                           const core::IterativeResult& result);

/// The full report as one JSON document.
JsonValue to_json(const RunReport& report);

/// Human-readable rendering (tables) for the CLI `report` subcommand.
std::string to_text(const RunReport& report);

}  // namespace hcsched::obs
