// Sufferage — paper §3.7, Figure 17; Maheswaran et al. [14], Casanova et
// al. [4].
//
// Greedy with a limited local search. Each pass over the unmapped task list
// tentatively claims machines: a task wants its earliest-completion-time
// machine; its "sufferage" is how much it would suffer if denied that
// machine (second-earliest CT minus earliest CT). A task with strictly
// larger sufferage evicts the current tentative holder of a machine (the
// evicted task returns to the list). At the end of a pass all tentative
// claims are committed and ready times updated. The paper shows (Tables
// 15-17) that the iterative technique can increase Sufferage's makespan even
// with deterministic ties.
//
// Determinism notes (documented in DESIGN.md): the task list is processed in
// problem order; displaced/rejected tasks re-enter the next pass in original
// task order; an exact sufferage tie keeps the incumbent (Figure 17 uses
// strict "<"); with one machine the sufferage is defined as 0.
#pragma once

#include "heuristics/heuristic.hpp"

namespace hcsched::heuristics {

/// One pass row of the Sufferage trace (paper Tables 16/17 report, per
/// mapped task: the pass number, its minimum CT, its sufferage value and the
/// machine it was committed to).
struct SufferageStep {
  std::size_t pass = 0;
  TaskId task = -1;
  MachineId machine = -1;
  double min_ct = 0.0;
  double sufferage = 0.0;
};

/// How displaced/rejected tasks re-enter the next pass. Figure 17 says
/// only "add t_i back to L"; kOriginalOrder (the default, documented in
/// DESIGN.md) restores the problem's task order, kEncounterOrder keeps the
/// order in which tasks were displaced/rejected within the pass. The
/// EXT-7d ablation shows the paper's phenomenon is insensitive to this.
enum class SufferageRequeue : std::uint8_t { kOriginalOrder, kEncounterOrder };

class Sufferage final : public Heuristic {
 public:
  explicit Sufferage(
      SufferageRequeue requeue = SufferageRequeue::kOriginalOrder)
      : requeue_(requeue) {}

  std::string_view name() const noexcept override { return "Sufferage"; }
  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;

  /// map() that also records the pass-by-pass commit trace.
  Schedule map_traced(const Problem& problem, TieBreaker& ties,
                      std::vector<SufferageStep>* trace) const;

  SufferageRequeue requeue() const noexcept { return requeue_; }

 private:
  SufferageRequeue requeue_;
};

namespace detail {
/// The reference pass loop: full best/second-best rescore of every pending
/// task each pass. The oracle the differential suite compares
/// fastpath::sufferage_fast against; dispatched to only under the test
/// seam fastpath::ScopedMode(false).
Schedule sufferage_reference(const Problem& problem, TieBreaker& ties,
                             SufferageRequeue requeue,
                             std::vector<SufferageStep>* trace);
}  // namespace detail

}  // namespace hcsched::heuristics
