// Problem: one resource-allocation instance (paper §2).
//
// A Problem is a *view* over an EtcMatrix: the subset of tasks still to be
// mapped, the subset of machines still considered, and the initial ready
// time of each considered machine. The iterative technique of the paper is
// expressed as a sequence of shrinking Problems over one shared EtcMatrix.
//
// Task order in `tasks` is significant: list-ordered heuristics (MCT, MET,
// OLB, KPB, SWA) map tasks in exactly this order, and the paper's theorems
// require the relative order to be preserved across iterations —
// Problem::remove_machine (and without_machine, built on it) preserves it.
//
// Every completion time a mapping of the problem can reach is bounded by a
// machine's ready time plus the sum of its ETC column over the problem's
// tasks; the constructor rejects problems where that bound is not finite,
// so no heuristic ever sees an infinite or NaN completion time. Shrinking
// only drops non-negative terms, so shrunk problems keep the guarantee.
#pragma once

#include <span>
#include <vector>

#include "core/check.hpp"
#include "etc/etc_matrix.hpp"

namespace hcsched::sched {

using etc::EtcMatrix;
using etc::MachineId;
using etc::TaskId;

class Problem {
 public:
  Problem() = default;

  /// Problem over a subset. `initial_ready` is parallel to `machines`;
  /// an empty vector means all zeros. Throws std::invalid_argument unless
  /// every ready time is finite and non-negative and each machine's ready
  /// time plus its ETC column summed over `tasks` is finite.
  Problem(const EtcMatrix& matrix, std::vector<TaskId> tasks,
          std::vector<MachineId> machines,
          std::vector<double> initial_ready = {});
  /// A Problem keeps a pointer to its matrix: a temporary would dangle.
  Problem(const EtcMatrix&&, std::vector<TaskId>, std::vector<MachineId>,
          std::vector<double> = {}) = delete;

  /// The full problem: all tasks, all machines, zero ready times.
  static Problem full(const EtcMatrix& matrix);
  static Problem full(const EtcMatrix&&) = delete;

  const EtcMatrix& matrix() const noexcept { return *matrix_; }
  const std::vector<TaskId>& tasks() const noexcept { return tasks_; }
  const std::vector<MachineId>& machines() const noexcept { return machines_; }

  std::size_t num_tasks() const noexcept { return tasks_.size(); }
  std::size_t num_machines() const noexcept { return machines_.size(); }

  /// Initial ready time of the machine at position `slot` in machines().
  double initial_ready(std::size_t slot) const { return ready_.at(slot); }
  const std::vector<double>& initial_ready_times() const noexcept {
    return ready_;
  }

  /// ETC of `task` on the machine occupying `slot`: one inline read of the
  /// task's matrix row. Hot-path accessor with a precondition, not a
  /// throwing check: `task` must be a row of matrix() and
  /// `slot < num_machines()` (checked in O(1) only when contract checks are
  /// compiled in). The constructor range-checked every machine id, so the
  /// slot's column is inside the row. Untrusted callers use
  /// matrix().at(task, machine), which throws.
  double etc_at(TaskId task, std::size_t slot) const {
    HCSCHED_PRECONDITION(task >= 0 &&
                             static_cast<std::size_t>(task) <
                                 matrix_->num_tasks() &&
                             slot < machines_.size(),
                         "etc_at(", task, ", ", slot, ") outside ",
                         matrix_->num_tasks(), " tasks x ", machines_.size(),
                         " slots");
    return matrix_->row(task)[static_cast<std::size_t>(machines_[slot])];
  }

  /// Position of `machine` in machines(), or npos when absent.
  std::size_t slot_of(MachineId machine) const noexcept;

  /// True when `task` / `machine` belong to this problem.
  bool has_task(TaskId task) const noexcept;
  bool has_machine(MachineId machine) const noexcept {
    return slot_of(machine) != npos;
  }

  /// One step of the paper's iterative technique, in place: removes the
  /// machine at `slot` and the tasks at positions `rows` of tasks()
  /// (strictly ascending). Surviving tasks and machines keep their relative
  /// order and initial ready times. Throws std::invalid_argument on a slot
  /// or row out of range, or rows not strictly ascending.
  void remove_machine(std::size_t slot, std::span<const std::size_t> rows);

  /// A new Problem with `machine` removed along with the tasks in
  /// `tasks_to_drop` (the tasks mapped to it; ids outside the problem are
  /// ignored), ready times reset to the initial ready times.
  Problem without_machine(MachineId machine,
                          const std::vector<TaskId>& tasks_to_drop) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  const EtcMatrix* matrix_ = nullptr;
  std::vector<TaskId> tasks_{};
  std::vector<MachineId> machines_{};
  std::vector<double> ready_{};
};

}  // namespace hcsched::sched
