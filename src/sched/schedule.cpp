#include "sched/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/check.hpp"

namespace hcsched::sched {

namespace {
constexpr std::int32_t kUnmapped = -1;
constexpr std::int32_t kForeign = -2;
}  // namespace

Schedule::Schedule(const Problem& problem)
    : problem_(problem),
      ready_(problem.initial_ready_times()),
      slot_by_machine_(problem.matrix().num_machines(), -1),
      machine_by_task_(problem.matrix().num_tasks(), kForeign) {
  order_.reserve(problem.num_tasks());
  for (std::size_t slot = 0; slot < problem.num_machines(); ++slot) {
    slot_by_machine_[static_cast<std::size_t>(problem.machines()[slot])] =
        static_cast<std::int32_t>(slot);
  }
  for (TaskId t : problem.tasks()) {
    machine_by_task_[static_cast<std::size_t>(t)] = kUnmapped;
  }
}

std::size_t Schedule::checked_slot(MachineId machine,
                                   const char* caller) const {
  if (machine < 0 ||
      static_cast<std::size_t>(machine) >= slot_by_machine_.size() ||
      slot_by_machine_[static_cast<std::size_t>(machine)] < 0) {
    throw std::invalid_argument(std::string(caller) + ": machine " +
                                std::to_string(machine) + " not in problem");
  }
  return static_cast<std::size_t>(
      slot_by_machine_[static_cast<std::size_t>(machine)]);
}

double Schedule::assign(TaskId task, MachineId machine) {
  if (task < 0 || static_cast<std::size_t>(task) >= machine_by_task_.size() ||
      machine_by_task_[static_cast<std::size_t>(task)] == kForeign) {
    throw std::invalid_argument("Schedule::assign: task " +
                                std::to_string(task) + " not in problem");
  }
  if (machine_by_task_[static_cast<std::size_t>(task)] != kUnmapped) {
    throw std::logic_error("Schedule::assign: task " + std::to_string(task) +
                           " already mapped");
  }
  const std::size_t slot = checked_slot(machine, "Schedule::assign");
  Assignment a;
  a.task = task;
  a.machine = machine;
  a.start = ready_[slot];
  a.finish = a.start + problem_.matrix().at(task, machine);
  // Machine completion times only ever grow as tasks are appended (ETC
  // entries are non-negative execution-time estimates).
  HCSCHED_INVARIANT(a.finish >= a.start, "task ", task, " on machine ",
                    machine, " has negative ETC ", a.finish - a.start);
  ready_[slot] = a.finish;
  order_.push_back(a);
  machine_by_task_[static_cast<std::size_t>(task)] = machine;
  HCSCHED_INVARIANT(order_.size() <= problem_.num_tasks(),
                    "more assignments than problem tasks");
  return a.finish;
}

std::optional<MachineId> Schedule::machine_of(TaskId task) const {
  if (task < 0 || static_cast<std::size_t>(task) >= machine_by_task_.size()) {
    return std::nullopt;
  }
  const std::int32_t m = machine_by_task_[static_cast<std::size_t>(task)];
  if (m < 0) return std::nullopt;
  return static_cast<MachineId>(m);
}

double Schedule::completion_time(MachineId machine) const {
  return ready_[checked_slot(machine, "Schedule::completion_time")];
}

std::vector<Assignment> Schedule::queue_of(MachineId machine) const {
  (void)checked_slot(machine, "Schedule::queue_of");
  std::vector<Assignment> out;
  for (const Assignment& a : order_) {
    if (a.machine == machine) out.push_back(a);
  }
  return out;
}

double Schedule::makespan() const {
  double best = 0.0;
  for (double r : ready_) best = std::max(best, r);
  return best;
}

MachineId Schedule::makespan_machine(double epsilon) const {
  if (ready_.empty()) {
    throw std::logic_error("Schedule::makespan_machine: no machines");
  }
  const double span = makespan();
  // Lowest machine id among those within epsilon of the makespan.
  MachineId best = -1;
  for (std::size_t slot = 0; slot < ready_.size(); ++slot) {
    if (span - ready_[slot] <= epsilon) {
      const MachineId id = problem_.machines()[slot];
      if (best < 0 || id < best) best = id;
    }
  }
  // The makespan machine itself is always within any epsilon >= 0 of the
  // makespan, so the scan must have selected someone.
  HCSCHED_INVARIANT(best >= 0, "no machine within ", epsilon,
                    " of makespan ", span);
  return best;
}

std::vector<TaskId> Schedule::tasks_on(MachineId machine) const {
  (void)checked_slot(machine, "Schedule::tasks_on");
  std::vector<TaskId> out;
  for (const Assignment& a : order_) {
    if (a.machine == machine) out.push_back(a.task);
  }
  return out;
}

bool Schedule::same_mapping(const Schedule& other) const {
  if (num_assigned() != other.num_assigned()) return false;
  for (const Assignment& a : order_) {
    const auto m = other.machine_of(a.task);
    if (!m.has_value() || *m != a.machine) return false;
  }
  return true;
}

Schedule restrict_schedule(const Schedule& previous, const Problem& problem) {
  Schedule out(problem);
  for (TaskId t : problem.tasks()) {
    const auto machine = previous.machine_of(t);
    if (!machine.has_value()) {
      throw std::invalid_argument(
          "restrict_schedule: task not mapped by previous schedule");
    }
    out.assign(t, *machine);
  }
  HCSCHED_INVARIANT(out.complete(), "restriction mapped ", out.num_assigned(),
                    " of ", problem.num_tasks(), " surviving tasks");
  return out;
}

}  // namespace hcsched::sched
