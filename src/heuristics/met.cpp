#include "heuristics/met.hpp"

namespace hcsched::heuristics {

Schedule Met::do_map(const Problem& problem, TieBreaker& ties) const {
  Schedule schedule(problem);
  const auto& machines = problem.machines();
  std::vector<double> scores(machines.size());
  for (TaskId task : problem.tasks()) {
    const auto row = problem.matrix().row(task);
    for (std::size_t slot = 0; slot < scores.size(); ++slot) {
      scores[slot] = row[static_cast<std::size_t>(machines[slot])];
    }
    const std::size_t slot = ties.choose_min(scores);
    schedule.assign(task, machines[slot]);
  }
  return schedule;
}

}  // namespace hcsched::heuristics
