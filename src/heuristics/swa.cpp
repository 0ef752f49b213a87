#include "heuristics/swa.hpp"

#include <algorithm>
#include <stdexcept>

namespace hcsched::heuristics {

Swa::Swa(double low_threshold, double high_threshold)
    : low_(low_threshold), high_(high_threshold) {
  if (!(0.0 <= low_ && low_ <= high_ && high_ <= 1.0)) {
    throw std::invalid_argument("Swa: need 0 <= low <= high <= 1");
  }
}

Schedule Swa::do_map(const Problem& problem, TieBreaker& ties) const {
  return map_traced(problem, ties, nullptr);
}

Schedule Swa::map_traced(const Problem& problem, TieBreaker& ties,
                         std::vector<SwaStep>* trace) const {
  Schedule schedule(problem);
  std::vector<double> ready = problem.initial_ready_times();
  std::vector<double> scores(problem.num_machines());

  SwaMode mode = SwaMode::kMct;  // Figure 13 step 2: first task uses MCT.
  bool first = true;
  for (TaskId task : problem.tasks()) {
    std::optional<double> bi;
    if (!first) {
      const double lo = *std::min_element(ready.begin(), ready.end());
      const double hi = *std::max_element(ready.begin(), ready.end());
      // All-zero ready times only occur before any mapping; ETCs are
      // positive, so hi > 0 here. Guard anyway (zero-ETC degenerate input).
      bi = hi > 0.0 ? lo / hi : 0.0;
      if (*bi > high_) {
        mode = SwaMode::kMet;
      } else if (*bi < low_) {
        mode = SwaMode::kMct;
      }
    }
    if (mode == SwaMode::kMct) {
      completion_times(problem, task, ready, scores);
    } else {
      for (std::size_t slot = 0; slot < problem.num_machines(); ++slot) {
        scores[slot] = problem.etc_at(task, slot);
      }
    }
    const std::size_t slot = ties.choose_min(scores);
    const double finish = schedule.assign(task, problem.machines()[slot]);
    ready[slot] = finish;
    if (trace != nullptr) {
      trace->push_back(
          SwaStep{task, problem.machines()[slot], finish, bi, mode});
    }
    first = false;
  }
  return schedule;
}

const char* to_string(SwaMode mode) noexcept {
  return mode == SwaMode::kMct ? "MCT" : "MET";
}

}  // namespace hcsched::heuristics
