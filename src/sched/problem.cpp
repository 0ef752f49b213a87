#include "sched/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace hcsched::sched {

Problem::Problem(const EtcMatrix& matrix, std::vector<TaskId> tasks,
                 std::vector<MachineId> machines,
                 std::vector<double> initial_ready)
    : matrix_(&matrix),
      tasks_(std::move(tasks)),
      machines_(std::move(machines)),
      ready_(std::move(initial_ready)) {
  if (ready_.empty()) ready_.assign(machines_.size(), 0.0);
  if (ready_.size() != machines_.size()) {
    throw std::invalid_argument(
        "Problem: initial_ready must be empty or parallel to machines");
  }
  std::vector<char> seen_task(matrix.num_tasks(), 0);
  for (TaskId t : tasks_) {
    if (t < 0 || static_cast<std::size_t>(t) >= matrix.num_tasks()) {
      throw std::out_of_range("Problem: task id outside ETC matrix");
    }
    if (seen_task[static_cast<std::size_t>(t)]++ != 0) {
      throw std::invalid_argument("Problem: duplicate task id " +
                                  std::to_string(t));
    }
  }
  std::vector<char> seen_machine(matrix.num_machines(), 0);
  for (MachineId m : machines_) {
    if (m < 0 || static_cast<std::size_t>(m) >= matrix.num_machines()) {
      throw std::out_of_range("Problem: machine id outside ETC matrix");
    }
    if (seen_machine[static_cast<std::size_t>(m)]++ != 0) {
      throw std::invalid_argument("Problem: duplicate machine id " +
                                  std::to_string(m));
    }
  }
  // bound[s] = ready time + ETC column sum: the largest completion time any
  // mapping can give the machine in slot s.
  std::vector<double> bound = ready_;
  for (std::size_t s = 0; s < bound.size(); ++s) {
    if (!std::isfinite(bound[s]) || bound[s] < 0.0) {
      throw std::invalid_argument(
          "Problem: ready time of machine " + std::to_string(machines_[s]) +
          " is not a finite, non-negative time");
    }
  }
  for (TaskId t : tasks_) {
    const auto row = matrix.row(t);
    for (std::size_t s = 0; s < bound.size(); ++s) {
      bound[s] += row[static_cast<std::size_t>(machines_[s])];
    }
  }
  for (std::size_t s = 0; s < bound.size(); ++s) {
    if (!std::isfinite(bound[s])) {
      throw std::invalid_argument(
          "Problem: completion times of machine " +
          std::to_string(machines_[s]) +
          " overflow (ready time plus ETC column sum is not finite)");
    }
  }
}

Problem Problem::full(const EtcMatrix& matrix) {
  std::vector<TaskId> tasks(matrix.num_tasks());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = static_cast<TaskId>(i);
  }
  std::vector<MachineId> machines(matrix.num_machines());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i] = static_cast<MachineId>(i);
  }
  return Problem(matrix, std::move(tasks), std::move(machines));
}

std::size_t Problem::slot_of(MachineId machine) const noexcept {
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (machines_[i] == machine) return i;
  }
  return npos;
}

bool Problem::has_task(TaskId task) const noexcept {
  return std::find(tasks_.begin(), tasks_.end(), task) != tasks_.end();
}

void Problem::remove_machine(std::size_t slot,
                             std::span<const std::size_t> rows) {
  if (slot >= machines_.size()) {
    throw std::invalid_argument("Problem::remove_machine: slot " +
                                std::to_string(slot) + " out of range");
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= tasks_.size() || (i > 0 && rows[i] <= rows[i - 1])) {
      throw std::invalid_argument(
          "Problem::remove_machine: task rows must be strictly ascending "
          "positions of tasks()");
    }
  }
  std::size_t kept = 0;
  std::size_t next_drop = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (next_drop < rows.size() && rows[next_drop] == i) {
      ++next_drop;
    } else {
      tasks_[kept++] = tasks_[i];
    }
  }
  tasks_.resize(kept);
  machines_.erase(machines_.begin() + static_cast<std::ptrdiff_t>(slot));
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(slot));
}

Problem Problem::without_machine(
    MachineId machine, const std::vector<TaskId>& tasks_to_drop) const {
  const std::size_t drop_slot = slot_of(machine);
  if (drop_slot == npos) {
    throw std::invalid_argument("Problem::without_machine: machine absent");
  }
  std::vector<char> dropped(matrix_->num_tasks(), 0);
  for (TaskId t : tasks_to_drop) {
    if (t >= 0 && static_cast<std::size_t>(t) < dropped.size()) {
      dropped[static_cast<std::size_t>(t)] = 1;
    }
  }
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (dropped[static_cast<std::size_t>(tasks_[i])] != 0) rows.push_back(i);
  }
  Problem next = *this;
  next.remove_machine(drop_slot, rows);
  return next;
}

}  // namespace hcsched::sched
