// Schedule: a mapping of a Problem's tasks onto its machines (paper Eq. 1).
//
// Machines execute one task at a time (no multitasking) and tasks are
// independent, so a machine's completion time is simply its initial ready
// time plus the sum of the ETCs assigned to it; per-task start/finish times
// follow from assignment order. CT(t, m) = ETC(t, m) + RT(m).
//
// Lookups (task membership, machine slot, task -> machine) are O(1) via
// dense indices over the underlying ETC matrix's id space, so building a
// schedule of n tasks costs O(n) beyond the heuristic's own work. The
// assignments live in one vector in assignment order; a machine's queue is
// that vector filtered to the machine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/problem.hpp"

namespace hcsched::sched {

struct Assignment {
  TaskId task = -1;
  MachineId machine = -1;
  double start = 0.0;
  double finish = 0.0;

  bool operator==(const Assignment&) const = default;
};

class Schedule {
 public:
  Schedule() = default;
  /// Copies the problem view (cheap: id vectors + a matrix pointer), so a
  /// Schedule stays valid independent of the caller's Problem lifetime; the
  /// underlying EtcMatrix must still outlive the schedule.
  explicit Schedule(const Problem& problem);

  const Problem& problem() const noexcept { return problem_; }

  /// Appends `task` to `machine`'s queue; returns the resulting completion
  /// time of the machine. Assigning a task twice or to a foreign task or
  /// machine throws.
  double assign(TaskId task, MachineId machine);

  /// Machine the task was mapped to, if mapped yet.
  std::optional<MachineId> machine_of(TaskId task) const;

  /// Current ready time (== completion time) of a machine.
  double completion_time(MachineId machine) const;

  /// Ready times indexed by machine slot (position in problem().machines()).
  const std::vector<double>& completion_times_by_slot() const noexcept {
    return ready_;
  }

  /// Ordered assignments of one machine (filtered from assignment_order()).
  std::vector<Assignment> queue_of(MachineId machine) const;

  /// All assignments in the order they were made.
  const std::vector<Assignment>& assignment_order() const noexcept {
    return order_;
  }

  std::size_t num_assigned() const noexcept { return order_.size(); }
  bool complete() const noexcept {
    return order_.size() == problem_.num_tasks();
  }

  /// Largest completion time over the problem's machines.
  double makespan() const;

  /// The machine attaining the makespan; completion-time ties are broken
  /// toward the lowest machine id (deterministic, documented in DESIGN.md),
  /// optionally within `epsilon`.
  MachineId makespan_machine(double epsilon = 0.0) const;

  /// Tasks assigned to a machine (ids only).
  std::vector<TaskId> tasks_on(MachineId machine) const;

  /// True when both schedules assign every task to the same machine
  /// (queue order within a machine is ignored; completion times follow from
  /// the assignment multiset, not the order).
  bool same_mapping(const Schedule& other) const;

 private:
  std::size_t checked_slot(MachineId machine, const char* caller) const;

  Problem problem_{};
  std::vector<double> ready_{};  // by machine slot
  std::vector<Assignment> order_{};
  // Dense indices over the ETC matrix's id spaces:
  std::vector<std::int32_t> slot_by_machine_{};  // -1 = not in problem
  std::vector<std::int32_t> machine_by_task_{};  // -1 = unmapped, -2 = foreign
};

/// Restriction of `previous` to the tasks/machines of `problem`: a schedule
/// over `problem` assigning each task to the machine `previous` chose, in
/// the order of problem().tasks(). Throws std::invalid_argument when
/// `previous` leaves a task of `problem` unmapped or maps it to a machine
/// outside `problem`.
Schedule restrict_schedule(const Schedule& previous, const Problem& problem);

}  // namespace hcsched::sched
