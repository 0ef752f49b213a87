#include "core/theorems.hpp"

#include <cmath>
#include <string>

namespace hcsched::core {

namespace {

bool close(double a, double b, double eps) { return std::fabs(a - b) <= eps; }

}  // namespace

InvarianceReport check_mapping_invariance(const IterativeResult& result,
                                          double epsilon) {
  InvarianceReport report;
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    const IterationRecord& prev = result.iterations[i - 1];
    const IterationRecord& cur = result.iterations[i];
    for (sched::TaskId t : cur.problem().tasks()) {
      const auto before = prev.schedule.machine_of(t);
      const auto after = cur.schedule.machine_of(t);
      if (!before || !after || *before != *after) {
        report.holds = false;
        report.violation = "iteration " + std::to_string(i) + ": task " +
                           std::to_string(t) + " moved from machine " +
                           std::to_string(before ? *before : -1) + " to " +
                           std::to_string(after ? *after : -1);
        return report;
      }
    }
    for (sched::MachineId m : cur.problem().machines()) {
      const double before = prev.schedule.completion_time(m);
      const double after = cur.schedule.completion_time(m);
      if (!close(before, after, epsilon)) {
        report.holds = false;
        report.violation = "iteration " + std::to_string(i) + ": machine " +
                           std::to_string(m) + " completion changed " +
                           std::to_string(before) + " -> " +
                           std::to_string(after);
        return report;
      }
    }
  }
  return report;
}

InvarianceReport verify_theorem(const Heuristic& heuristic,
                                const Problem& problem, double epsilon) {
  TieBreaker deterministic;
  IterativeMinimizer minimizer{IterativeOptions{.use_seeding = false}};
  const IterativeResult result =
      minimizer.run(heuristic, problem, deterministic);
  return check_mapping_invariance(result, epsilon);
}

InvarianceReport check_monotone_makespan(const IterativeResult& result,
                                         double epsilon) {
  InvarianceReport report;
  double ceiling = result.original().makespan;
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    const double span = result.iterations[i].makespan;
    if (span > ceiling + epsilon) {
      report.holds = false;
      report.violation = "iteration " + std::to_string(i) + " makespan " +
                         std::to_string(span) +
                         " exceeds original makespan " +
                         std::to_string(ceiling);
      return report;
    }
  }
  return report;
}

bool no_machine_worsened(const IterativeResult& result, double epsilon) {
  const std::vector<double> before = result.original_finishing_times();
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (result.final_finishing_times[i].second > before[i] + epsilon) {
      return false;
    }
  }
  return true;
}

}  // namespace hcsched::core
