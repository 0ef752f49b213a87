// Incremental state carried across the iterative technique's iterations.
//
// IterativeMinimizer re-runs the heuristic after removing the makespan
// machine; the heuristic's input shrinks by exactly one machine column and
// exactly the rows of the tasks that machine held, with every surviving
// cell unchanged. IterativeReuse exploits that: it owns the EtcView of the
// current iteration's problem and, on each removal (the slot and task rows
// the minimizer also removes from its Problem), compacts it in place
// (EtcView::compact) instead of re-gathering T x M cells from the matrix —
// plus the KPB per-task machine rankings, which survive slot removal by
// order-preserving compaction (docs/FASTPATH.md "Incremental iteration").
//
// Wiring is deliberately loose: the minimizer installs a thread-local
// pointer (ScopedReuse) and keeps calling Heuristic::map() — so the NVI
// instrumentation and fault-injection sites are untouched — while the
// kernels opportunistically pick the view up through active_reuse(), which
// validates that the problem being mapped is exactly the one the view
// mirrors (same matrix, same task list, same machine list). Any mismatch —
// a Segmented sub-problem, a nested study, a heuristic mapping something
// else — silently falls back to a local gather, so reuse is an optimization
// the equivalence guarantee never depends on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "heuristics/fastpath/etc_view.hpp"
#include "sched/problem.hpp"

namespace hcsched::heuristics::fastpath {

class IterativeReuse {
 public:
  explicit IterativeReuse(const sched::Problem& initial);

  /// Advance past one removal step: the machine at `slot` and the tasks at
  /// positions `rows` (strictly ascending) leave, exactly as
  /// Problem::remove_machine(slot, rows) does to the mirrored problem.
  /// Compacts the view and, when built, the KPB rankings in place.
  void apply_removal(std::size_t slot, std::span<const std::size_t> rows);

  /// True when `p` is exactly the problem this view mirrors.
  bool matches(const sched::Problem& p) const noexcept;

  const EtcView& view() const noexcept { return view_; }

  /// KPB ranking cache: row t_pos holds every machine slot sorted by
  /// (ETC ascending, slot ascending) for that task — built lazily by the
  /// KPB kernel, compacted by apply_removal. Flat T x M, valid only when
  /// rankings_built().
  std::vector<std::uint32_t>& rankings() noexcept { return rankings_; }
  bool rankings_built() const noexcept { return rankings_built_; }
  void mark_rankings_built() noexcept { rankings_built_ = true; }

 private:
  sched::Problem mirror_;
  EtcView view_;
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

/// The thread's active context when it mirrors `problem`, else nullptr.
IterativeReuse* active_reuse(const sched::Problem& problem) noexcept;

/// The kernels' view source: the active context's incrementally-maintained
/// view when one matches `problem`, otherwise a fresh gather into `scratch`.
const EtcView& acquire_view(const sched::Problem& problem, EtcView& scratch);

}  // namespace hcsched::heuristics::fastpath
