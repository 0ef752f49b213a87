#include "core/iterative.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/cancel.hpp"
#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/reuse.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sched/metrics.hpp"

namespace hcsched::core {

namespace {

#if HCSCHED_TRACE
/// One "iterative.iteration" event: the paper's per-iteration trajectory
/// (completion-time vector, balance index, makespan transition) plus which
/// machine gets frozen. `removed` is false for the terminal iteration.
void trace_iteration(const Heuristic& heuristic, const IterationRecord& record,
                     bool removed) {
  if (!obs::Tracer::active()) return;
  obs::JsonValue::Object completion_times;
  completion_times.reserve(record.problem().num_machines());
  for (MachineId m : record.problem().machines()) {
    std::string label(1, 'm');
    label += std::to_string(m);
    completion_times.emplace_back(
        std::move(label), obs::JsonValue(record.schedule.completion_time(m)));
  }
  obs::JsonValue::Object fields;
  fields.emplace_back("heuristic", obs::JsonValue(heuristic.name()));
  fields.emplace_back("iteration", obs::JsonValue(record.index));
  fields.emplace_back("tasks",
                      obs::JsonValue(record.problem().num_tasks()));
  fields.emplace_back("machines",
                      obs::JsonValue(record.problem().num_machines()));
  fields.emplace_back("makespan", obs::JsonValue(record.makespan));
  fields.emplace_back(
      "balance_index",
      obs::JsonValue(sched::load_balance_index(record.schedule)));
  fields.emplace_back("completion_times",
                      obs::JsonValue(std::move(completion_times)));
  if (removed) {
    std::string label(1, 'm');
    label += std::to_string(record.makespan_machine);
    fields.emplace_back("removed_machine", obs::JsonValue(std::move(label)));
    fields.emplace_back("frozen_completion_time",
                        obs::JsonValue(record.makespan));
  }
  obs::Tracer::emit("iterative.iteration", std::move(fields));
}
#endif

}  // namespace

double IterativeResult::final_finish_of(MachineId machine) const {
  for (const auto& [m, t] : final_finishing_times) {
    if (m == machine) return t;
  }
  throw std::invalid_argument("IterativeResult: machine " +
                              std::to_string(machine) + " unknown");
}

std::vector<double> IterativeResult::original_finishing_times() const {
  std::vector<double> out;
  out.reserve(final_finishing_times.size());
  for (const auto& [machine, unused] : final_finishing_times) {
    (void)unused;
    out.push_back(original().schedule.completion_time(machine));
  }
  return out;
}

double IterativeResult::final_makespan() const {
  double best = 0.0;
  for (const auto& [machine, finish] : final_finishing_times) {
    (void)machine;
    best = std::max(best, finish);
  }
  return best;
}

bool IterativeResult::makespan_increased(double epsilon) const {
  return final_makespan() > original().makespan + epsilon;
}

IterativeResult IterativeMinimizer::run(const Heuristic& heuristic,
                                        const Problem& problem,
                                        TieBreaker& ties) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("IterativeMinimizer: no machines");
  }
  HCSCHED_COUNT(obs::Counter::kIterativeRuns);
  // Wall time of the whole minimization (all rounds of one heuristic) shows
  // up in `study --profile` keyed by heuristic name.
  HCSCHED_SPAN(run_span, "iterative:", heuristic.name());
  HCSCHED_SPAN_ATTR(run_span, "heuristic", obs::JsonValue(heuristic.name()));
  HCSCHED_SPAN_ATTR(run_span, "tasks", obs::JsonValue(problem.num_tasks()));
  HCSCHED_SPAN_ATTR(run_span, "machines",
                    obs::JsonValue(problem.num_machines()));
  IterativeResult result;
  // Every non-terminal iteration removes one machine: at most M records.
  result.iterations.reserve(problem.num_machines());
  // Final finishing times keyed in initial machine order; filled in as
  // machines are removed.
  result.final_finishing_times.reserve(problem.num_machines());
  for (MachineId m : problem.machines()) {
    result.final_finishing_times.emplace_back(m, 0.0);
  }
  auto record_finish = [&result](MachineId machine, double finish) {
    for (auto& [m, t] : result.final_finishing_times) {
      if (m == machine) {
        t = finish;
        return;
      }
    }
    // Every frozen machine comes from a Problem derived from the original,
    // so it must appear in the table seeded above.
    HCSCHED_UNREACHABLE("machine ", machine,
                        " frozen but absent from the original problem");
  };

  // The one copy of the problem; each round shrinks it in place.
  Problem current = problem;
  // Incremental machine-removal state for the fastpath kernels: the view of
  // the current problem's ETC cells is compacted in place each round
  // instead of re-gathered. The heuristic is still invoked through its
  // normal NVI entry (instrumentation and fault-injection sites stay), and
  // kernels that don't recognize the problem simply ignore the context —
  // equivalence never depends on it (reuse.hpp).
  std::optional<heuristics::fastpath::IterativeReuse> reuse;
  std::optional<heuristics::fastpath::ScopedReuse> reuse_scope;
  if (heuristics::fastpath::enabled()) {
    reuse.emplace(current);
    reuse_scope.emplace(*reuse);
  }
  // Positions in current.tasks() of the frozen machine's tasks.
  std::vector<std::size_t> removed_rows;
  removed_rows.reserve(current.num_tasks());
  for (std::size_t index = 0;; ++index) {
    // Seed: the previous iteration's own schedule. It maps every task of
    // `current` to a machine of `current` (removing the makespan machine
    // removed exactly its tasks), which is all map_seeded requires.
    const Schedule* seed = options_.use_seeding && index > 0
                               ? &result.iterations.back().schedule
                               : nullptr;
    IterationRecord record;
    record.index = index;
    {
      HCSCHED_SPAN(iteration_span, "iteration");
      record.schedule = options_.use_seeding
                            ? heuristic.map_seeded(current, ties, seed)
                            : heuristic.map(current, ties);
      record.makespan = record.schedule.makespan();
      record.makespan_machine =
          record.schedule.makespan_machine(options_.epsilon);
      HCSCHED_SPAN_ATTR(iteration_span, "index", obs::JsonValue(index));
      HCSCHED_SPAN_ATTR(iteration_span, "makespan",
                        obs::JsonValue(record.makespan));
      HCSCHED_SPAN_ATTR(
          iteration_span, "makespan_machine",
          obs::JsonValue(std::string("m").append(
              std::to_string(record.makespan_machine))));
    }
    // Heuristics must return complete mappings: every task of the (current,
    // possibly shrunk) problem assigned exactly once.
    HCSCHED_INVARIANT(record.schedule.complete(), "iteration ", index,
                      " mapped ", record.schedule.num_assigned(), " of ",
                      current.num_tasks(), " tasks");
    result.iterations.push_back(std::move(record));
    const IterationRecord& done = result.iterations.back();
    HCSCHED_COUNT(obs::Counter::kIterativeIterations);

    // Cancellation degrades gracefully: the just-produced mapping (itself a
    // best-so-far result from any cancelled anytime heuristic) becomes the
    // terminal iteration, freezing every surviving machine at its current
    // completion time — the result stays structurally valid, just with
    // fewer minimization rounds applied.
    if (current.num_machines() == 1 || current.num_tasks() == 0 ||
        cancellation_requested()) {
      // Terminal iteration: every surviving machine keeps this mapping's
      // completion time.
#if HCSCHED_TRACE
      trace_iteration(heuristic, done, /*removed=*/false);
#endif
      for (MachineId m : current.machines()) {
        record_finish(m, done.schedule.completion_time(m));
      }
      break;
    }
#if HCSCHED_TRACE
    trace_iteration(heuristic, done, /*removed=*/true);
#endif
    // Freeze the makespan machine's finishing time and shrink the problem
    // by its slot and the rows of its tasks.
    record_finish(done.makespan_machine, done.makespan);
    removed_rows.clear();
    const std::vector<TaskId>& tasks = current.tasks();
    for (std::size_t row = 0; row < tasks.size(); ++row) {
      if (done.schedule.machine_of(tasks[row]) == done.makespan_machine) {
        removed_rows.push_back(row);
      }
    }
    const std::size_t slot = current.slot_of(done.makespan_machine);
    current.remove_machine(slot, removed_rows);
    // Each round removes exactly the makespan machine and exactly its tasks.
    HCSCHED_INVARIANT(
        current.num_machines() == done.problem().num_machines() - 1,
        "iteration ", index, " removed ",
        done.problem().num_machines() - current.num_machines(), " machines");
    HCSCHED_INVARIANT(
        removed_rows.size() ==
            done.schedule.tasks_on(done.makespan_machine).size(),
        "iteration ", index, " dropped ", removed_rows.size(),
        " tasks, not the frozen machine's ",
        done.schedule.tasks_on(done.makespan_machine).size());
    if (reuse.has_value()) reuse->apply_removal(slot, removed_rows);
  }
#if HCSCHED_TRACE
  if (obs::Tracer::active()) {
    obs::JsonValue::Object final_times;
    final_times.reserve(result.final_finishing_times.size());
    for (const auto& [m, t] : result.final_finishing_times) {
      std::string label(1, 'm');
      label += std::to_string(m);
      final_times.emplace_back(std::move(label), obs::JsonValue(t));
    }
    obs::JsonValue::Object fields;
    fields.emplace_back("heuristic", obs::JsonValue(heuristic.name()));
    fields.emplace_back("fastpath",
                        obs::JsonValue(heuristics::fastpath::enabled()));
    fields.emplace_back("iterations",
                        obs::JsonValue(result.iterations.size()));
    fields.emplace_back("original_makespan",
                        obs::JsonValue(result.original().makespan));
    fields.emplace_back("final_makespan",
                        obs::JsonValue(result.final_makespan()));
    fields.emplace_back("makespan_increased",
                        obs::JsonValue(result.makespan_increased()));
    fields.emplace_back("final_finishing_times",
                        obs::JsonValue(std::move(final_times)));
    obs::Tracer::emit("iterative.done", std::move(fields));
  }
#endif
  HCSCHED_SPAN_ATTR(run_span, "iterations",
                    obs::JsonValue(result.iterations.size()));
  return result;
}

}  // namespace hcsched::core
