#include "heuristics/heuristic.hpp"

#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/fault/fault.hpp"  // dependency-light by design (see its header)

#if HCSCHED_TRACE
#include <chrono>
#endif

namespace hcsched::heuristics {

namespace {

#if HCSCHED_TRACE
/// Times one heuristic invocation: a `map:<H>` span, the invocation counter
/// and one `hcsched_heuristic_map_ns` observation on scope exit.
class CallScope {
 public:
  CallScope(const Heuristic& heuristic, const Problem& problem, bool seeded)
      : span_("map:", heuristic.name()),
        start_(std::chrono::steady_clock::now()) {
    // The span inherits the calling context (iteration span, trial span)
    // so per-heuristic time lands under the right profile path.
    if (span_.recording()) {
      span_.attr("heuristic", obs::JsonValue(heuristic.name()));
      span_.attr("tasks", obs::JsonValue(problem.num_tasks()));
      span_.attr("machines", obs::JsonValue(problem.num_machines()));
      span_.attr("seeded", obs::JsonValue(seeded));
    }
  }

  ~CallScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    obs::counters::add(obs::Counter::kHeuristicInvocations);
    HCSCHED_METRIC_OBSERVE("hcsched_heuristic_map_ns",
                           "Latency of one heuristic mapping call", ns);
  }

 private:
  // Declared before start_ so the span's window covers the whole call and
  // closes (emits) after the duration is taken.
  obs::ScopedSpan span_;
  std::chrono::steady_clock::time_point start_;
};
#endif

}  // namespace

Schedule Heuristic::map(const Problem& problem, TieBreaker& ties) const {
  // The heuristic-map fault site, keyed by the thread's current fault key
  // (the study installs its (trial, heuristic) key). One relaxed atomic
  // load when nothing is armed.
  sim::fault::maybe_inject_here(sim::fault::Site::kHeuristicMap);
#if HCSCHED_TRACE
  const CallScope scope(*this, problem, /*seeded=*/false);
#endif
  return do_map(problem, ties);
}

Schedule Heuristic::map_seeded(const Problem& problem, TieBreaker& ties,
                               const Schedule* seed) const {
  sim::fault::maybe_inject_here(sim::fault::Site::kHeuristicMap);
#if HCSCHED_TRACE
  const CallScope scope(*this, problem, /*seeded=*/seed != nullptr);
#endif
  return do_map_seeded(problem, ties, seed);
}

void completion_times(const Problem& problem, TaskId task,
                      const std::vector<double>& ready,
                      std::vector<double>& scores) {
  const auto& machines = problem.machines();
  const std::size_t m = machines.size();
  HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, m);
  scores.resize(m);
  const auto row = problem.matrix().row(task);
  for (std::size_t slot = 0; slot < m; ++slot) {
    scores[slot] = ready[slot] + row[static_cast<std::size_t>(machines[slot])];
  }
}

}  // namespace hcsched::heuristics
