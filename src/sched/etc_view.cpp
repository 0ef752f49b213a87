#include "sched/etc_view.hpp"

namespace hcsched::sched {

EtcView::EtcView(const Problem& problem)
    : tasks_(problem.num_tasks()),
      slots_(problem.num_machines()),
      data_(tasks_ * slots_) {
  const auto& machines = problem.machines();
  double* out = data_.data();
  for (const TaskId task : problem.tasks()) {
    const std::span<const double> full_row = problem.matrix().row(task);
    for (std::size_t slot = 0; slot < slots_; ++slot) {
      *out++ = full_row[static_cast<std::size_t>(machines[slot])];
    }
  }
}

}  // namespace hcsched::sched
