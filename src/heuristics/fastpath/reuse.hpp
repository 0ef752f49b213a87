// Incremental state carried across the iterative technique's iterations.
//
// IterativeMinimizer re-runs the heuristic after removing the makespan
// machine; its one Problem (`current`) shrinks in place by exactly one
// machine column and exactly the rows of the tasks that machine held, with
// every surviving cell unchanged. IterativeReuse carries the one piece of
// kernel state that earns its keep across rounds: the KPB per-task machine
// rankings, which survive slot removal by order-preserving compaction
// (docs/FASTPATH.md "Incremental iteration"). They are built lazily, by the
// first KPB map, so every other heuristic never pays for them. ETC rows are
// not carried: each kernel gathers its own once per map.
//
// Wiring is deliberately loose: the minimizer installs a thread-local
// pointer (ScopedReuse) and keeps calling Heuristic::map() — so the NVI
// instrumentation and fault-injection sites are untouched — while the KPB
// kernel opportunistically picks the rankings up through active_reuse(),
// which matches by identity: the problem being mapped must be `current`
// itself. `current` changes only through Problem::remove_machine, which
// apply_removal follows in lockstep, so identity is exact. Anything else —
// a Segmented sub-problem, a nested study, an equal-valued copy — sorts
// locally, so reuse is an optimization the equivalence guarantee never
// depends on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sched/problem.hpp"

namespace hcsched::heuristics::fastpath {

class IterativeReuse {
 public:
  /// Follows `current`, which must outlive this context and change only
  /// through remove_machine calls each followed by apply_removal.
  explicit IterativeReuse(const sched::Problem& current) noexcept
      : current_(&current) {}

  /// Advance past one removal step, called right after
  /// current.remove_machine(slot, rows): the machine at `slot` and the
  /// tasks at positions `rows` (strictly ascending) left. Compacts the KPB
  /// rankings in place if built.
  void apply_removal(std::size_t slot, std::span<const std::size_t> rows);

  /// True when `p` is the problem this context follows (the same object).
  bool matches(const sched::Problem& p) const noexcept {
    return &p == current_;
  }

  /// KPB ranking cache: row t_pos holds every machine slot sorted by
  /// (ETC ascending, slot ascending) for that task — built lazily by the
  /// KPB kernel, compacted by apply_removal. Flat T x M, valid only when
  /// rankings_built().
  std::vector<std::uint32_t>& rankings() noexcept { return rankings_; }
  bool rankings_built() const noexcept { return rankings_built_; }
  void mark_rankings_built() noexcept { rankings_built_ = true; }

 private:
  const sched::Problem* current_;
  std::vector<std::uint32_t> rankings_{};
  bool rankings_built_ = false;
};

/// Installs `reuse` as the calling thread's active context for its scope.
class ScopedReuse {
 public:
  explicit ScopedReuse(IterativeReuse& reuse) noexcept;
  ~ScopedReuse();
  ScopedReuse(const ScopedReuse&) = delete;
  ScopedReuse& operator=(const ScopedReuse&) = delete;

 private:
  IterativeReuse* previous_;
};

/// The thread's active context when it follows `problem`, else nullptr.
IterativeReuse* active_reuse(const sched::Problem& problem) noexcept;

}  // namespace hcsched::heuristics::fastpath
