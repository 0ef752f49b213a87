// IterativeMinimizer — the paper's primary contribution (§1-2).
//
// Given a heuristic H and a problem, iteration 0 produces the *original
// mapping*. Each subsequent iteration removes the previous iteration's
// makespan machine together with the tasks assigned to it, resets every
// surviving machine to its initial ready time, and re-runs H on the
// remaining tasks and machines. The process stops when one machine remains
// (or the task set empties). A machine's *final finishing time* is its
// completion time in the iteration at which it was removed; machines
// surviving to the last iteration take their completion times from it.
//
// With `use_seeding` enabled the previous iteration's own schedule is passed
// to Heuristic::map_seeded as the seed. It maps every surviving task to a
// surviving machine (removing the makespan machine removes exactly its
// tasks) plus the removed machine's tasks, which is the map_seeded contract;
// the search heuristics and Seeded<H> read its restriction, the greedy
// heuristics ignore it, so this reproduces the paper's protocol exactly.
//
// One run copies the input Problem once and then shrinks that copy in place
// each round (Problem::remove_machine, on the task rows found by one
// machine_of pass over the schedule); KPB's cached machine rankings, once
// its kernel has sorted them, are compacted by the same slot and rows
// (fastpath::IterativeReuse). Every other kernel gathers its ETC rows afresh
// each round. Each round's Schedule is stored in its IterationRecord.
#pragma once

#include <vector>

#include "heuristics/heuristic.hpp"

namespace hcsched::core {

using heuristics::Heuristic;
using rng::TieBreaker;
using sched::MachineId;
using sched::Problem;
using sched::Schedule;
using sched::TaskId;

struct IterationRecord {
  std::size_t index = 0;  ///< 0 = original mapping
  Schedule schedule{};    ///< mapping produced by the heuristic
  MachineId makespan_machine = -1;
  double makespan = 0.0;

  /// Tasks/machines considered this iteration (owned by the schedule).
  const Problem& problem() const noexcept { return schedule.problem(); }
};

struct IterativeResult {
  std::vector<IterationRecord> iterations{};
  /// (machine, final finishing time) for every machine of the initial
  /// problem, in initial machine order.
  std::vector<std::pair<MachineId, double>> final_finishing_times{};

  const IterationRecord& original() const { return iterations.front(); }

  double final_finish_of(MachineId machine) const;

  /// Finishing times of the original mapping, machine order matching
  /// final_finishing_times.
  std::vector<double> original_finishing_times() const;

  /// Largest final finishing time over all machines — the *effective*
  /// makespan after the iterative technique. The paper's examples show this
  /// can exceed the original makespan.
  double final_makespan() const;

  /// True when some iteration's effective makespan exceeds the original
  /// mapping's makespan by more than `epsilon`.
  /// Reporting tolerance, not a tie rule: sums added in different orders.
  bool makespan_increased(double epsilon = 1e-9) const;
};

struct IterativeOptions {
  /// Pass the previous iteration's schedule to Heuristic::map_seeded
  /// (Genitor's protocol in the paper). Greedy heuristics ignore the seed.
  bool use_seeding = true;
};

class IterativeMinimizer {
 public:
  explicit IterativeMinimizer(IterativeOptions options = {})
      : options_(options) {}

  /// Runs the full iterative technique. The TieBreaker is shared across
  /// iterations (a Scripted breaker therefore scripts the whole run).
  IterativeResult run(const Heuristic& heuristic, const Problem& problem,
                      TieBreaker& ties) const;

  const IterativeOptions& options() const noexcept { return options_; }

 private:
  IterativeOptions options_;
};

}  // namespace hcsched::core
