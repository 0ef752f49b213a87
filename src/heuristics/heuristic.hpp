// Heuristic: the interface every mapping heuristic implements (paper §3).
//
// A heuristic maps all tasks of a Problem onto its machines, minimizing
// makespan, consulting a TieBreaker whenever it must choose among equally
// good candidates. The public entry points map()/map_seeded() are
// *non-virtual* (NVI): they wrap the derived implementation (do_map /
// do_map_seeded) in the observability layer's timer + counter scope, so
// every heuristic invocation in the process — CLI, iterative core,
// Monte-Carlo studies, benches — is measured in one place (src/obs/). With
// the library built under -DHCSCHED_TRACE=0 the wrappers collapse to plain
// forwarding calls.
//
// do_map_seeded additionally receives the previous iteration's mapping, as
// the iterative core produced it (not restricted to the surviving machines);
// the search heuristics (Genitor, SA, GSA, Tabu, LocalSearch) and the
// Seeded wrapper use it — Genitor seeds its initial population with that
// mapping's restriction, which is what makes iterative Genitor monotone
// (paper §3.1). The default implementation ignores the seed, matching the
// other heuristics' behavior in the paper.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "rng/tie_break.hpp"
#include "sched/schedule.hpp"

namespace hcsched::heuristics {

using rng::TieBreaker;
using sched::MachineId;
using sched::Problem;
using sched::Schedule;
using sched::TaskId;

class Heuristic {
 public:
  virtual ~Heuristic() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Produces a complete schedule for `problem`. Instrumented: counts the
  /// invocation, times it into `hcsched_heuristic_map_ns`, and opens a
  /// `map:<name>` span.
  Schedule map(const Problem& problem, TieBreaker& ties) const;

  /// Like map(), but with an optional warm-start mapping from the previous
  /// iteration of the iterative technique; it may be null. `seed` maps every
  /// task of `problem` to a machine of `problem`, and may map more (the
  /// iterative core passes the previous iteration's whole schedule, which
  /// also holds the removed machine's tasks). A consumer reads only its
  /// restriction to `problem` (sched::restrict_schedule, or machine_of over
  /// problem.tasks()). Instrumented like map().
  Schedule map_seeded(const Problem& problem, TieBreaker& ties,
                      const Schedule* seed) const;

  /// Whether the heuristic is deterministic given a deterministic
  /// tie-breaker (true for all list/greedy heuristics; false for Genitor,
  /// which draws from its own RNG).
  virtual bool deterministic_given_ties() const noexcept { return true; }

 protected:
  /// The actual mapping algorithm.
  virtual Schedule do_map(const Problem& problem, TieBreaker& ties) const = 0;

  /// Seed-aware variant; default ignores the seed.
  virtual Schedule do_map_seeded(const Problem& problem, TieBreaker& ties,
                                 const Schedule* seed) const {
    (void)seed;
    return do_map(problem, ties);
  }
};

/// Convenience: candidate completion times of `task` over every machine slot
/// of `problem` given current ready times `ready` (by slot). Scores vector
/// is filled (resized) by the call. Counts one ETC-cell evaluation per slot.
void completion_times(const Problem& problem, TaskId task,
                      const std::vector<double>& ready,
                      std::vector<double>& scores);

}  // namespace hcsched::heuristics
