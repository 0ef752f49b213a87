// Operation counters (observability pillar 3 of 3 with obs/metrics.hpp:
// counting and timing).
//
// Wall-clock alone is a dishonest currency for comparing heuristics (fast
// local-search literature counts *evaluations*); this module gives the hot
// paths cheap operation counters:
//
//   * Counter — a fixed catalog of u64 counters, the only counter in obs/.
//               add() writes a plain thread-local buffer (no atomics on the
//               hot path); buffers are merged into the global table when a
//               CounterScope exits, when the owning thread exits, or when
//               the calling thread snapshots.
//
// Time is measured by the metrics registry's histograms (obs/metrics.hpp);
// the thread pool's two are named here. counters::reset() zeroes both.
//
// Instrument with HCSCHED_COUNT(...), which compiles away entirely under
// -DHCSCHED_TRACE=0 (the same kill switch as tracing). The query API is
// always compiled so tooling builds in every configuration.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"  // HCSCHED_TRACE

namespace hcsched::obs {

enum class Counter : std::size_t {
  kHeuristicInvocations = 0,  ///< Heuristic::map / map_seeded calls
  kEtcCellEvaluations,        ///< ready + ETC(task, machine) lookups scored
  kTieDecisions,              ///< TieBreaker choose_* calls
  kTieEvents,                 ///< genuine ties (candidate set > 1)
  kGaSteps,                   ///< Genitor steady-state steps
  kGaCrossovers,              ///< Genitor crossovers applied
  kGaMutations,               ///< Genitor mutation trials
  kSearchNodesExpanded,       ///< A* / branch-and-bound nodes expanded
  kIterativeRuns,             ///< IterativeMinimizer::run calls
  kIterativeIterations,       ///< iterations across all runs
  kPoolTasksSubmitted,        ///< ThreadPool::submit calls
  kPoolTasksCompleted,        ///< pool tasks finished
  kFastpathRescores,          ///< fast-path kernel full task rescores
  kFastpathReplays,           ///< fast-path kernel cached-decision replays
  kFaultsInjected,            ///< fault::maybe_inject decisions that fired
  kTrialsQuarantined,         ///< study trials captured instead of aborting
  kStudiesCancelled,          ///< studies stopped early by a CancelToken
  kCheckpointTrialsWritten,   ///< trial outcomes appended to a checkpoint
  kCheckpointTrialsReplayed,  ///< trials resumed from a checkpoint
  kCheckpointCorruptLines,    ///< checkpoint lines skipped as unreadable
  kLocalSearchSteps,          ///< local-search neighborhood steps applied
  kLocalSearchRestarts,       ///< local-search random-disruption restarts
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name (JSON key) of a counter.
std::string_view to_string(Counter c) noexcept;

namespace counters {

/// Adds `n` to the calling thread's buffer for `c` (cheap, no atomics).
void add(Counter c, std::uint64_t n = 1) noexcept;

/// Merges the calling thread's buffer into the global table. Called
/// automatically at thread exit and by CounterScope / snapshot().
void flush_thread() noexcept;

struct Snapshot {
  std::array<std::uint64_t, kNumCounters> values{};

  std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  /// Per-counter difference (saturating at 0) versus an earlier snapshot.
  Snapshot delta_since(const Snapshot& earlier) const noexcept;
  /// {"counter_name": value, ...} in catalog order.
  JsonValue to_json() const;
};

/// Flushes the calling thread, then reads the global table. Counts buffered
/// by *other* live threads that have not flushed yet are not included.
Snapshot snapshot();

/// Zeros the global table, the calling thread's buffer and every instrument
/// of the global metrics registry (registrations are kept).
void reset();

/// RAII: flushes this thread's counter buffer on scope exit. Place one at
/// the top of a worker's chunk so its counts land in the global table as
/// soon as the chunk finishes.
class CounterScope {
 public:
  CounterScope() = default;
  ~CounterScope() { flush_thread(); }
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;
};

}  // namespace counters

/// Queue wait (submit -> start) of thread-pool jobs: the registry's
/// `hcsched_pool_wait_ns` histogram.
MetricHistogram& pool_wait_histogram();
/// Run latency (start -> finish) of thread-pool jobs: the registry's
/// `hcsched_pool_run_ns` histogram.
MetricHistogram& pool_run_histogram();

}  // namespace hcsched::obs

#if HCSCHED_TRACE
#define HCSCHED_COUNT(counter, ...) \
  ::hcsched::obs::counters::add((counter), ##__VA_ARGS__)
#else
#define HCSCHED_COUNT(counter, ...) \
  do {                              \
  } while (0)
#endif
