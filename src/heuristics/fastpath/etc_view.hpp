// EtcView: the structure-of-arrays backbone of the fastpath kernels — a
// contiguously laid-out copy of the ETC cells a Problem can see.
//
// Problem::etc_at(task, slot) dereferences the machine-id vector and the
// full matrix on every call; the kernels' inner loops instead scan one flat
// buffer. Cells are stored with the machine slot as the minor (contiguous)
// dimension — row(p) is task p's completion-cost row across the problem's
// machine slots — because every rescore walks exactly that row, and the
// min-scan (minscan.hpp) walks it at unit stride. Values are verbatim
// copies of the matrix doubles, so arithmetic on a view row is bit-identical
// to arithmetic through Problem::etc_at.
//
// Two reuse paths keep the gather off the hot path:
//   * assign() refills an existing view in place, retaining capacity — a
//     study cell's trials share one buffer (see workspace.hpp).
//   * compact() drops one machine column and a set of task rows in place —
//     the iterative technique's machine-removal step (reuse.hpp) turns the
//     previous iteration's view into the next one without touching the
//     matrix again. Surviving cells remain verbatim copies.
#pragma once

#include <span>
#include <vector>

#include "sched/problem.hpp"

namespace hcsched::heuristics::fastpath {

class EtcView {
 public:
  EtcView() = default;

  /// Gathers the problem's tasks x machine-slots submatrix. O(T x M).
  explicit EtcView(const sched::Problem& problem) { assign(problem); }

  /// Re-gathers into the existing buffer (capacity retained).
  void assign(const sched::Problem& problem);

  /// Drops machine column `slot` and the rows of the task positions in
  /// `drop_rows` (ascending, possibly empty) in one forward pass. The
  /// result equals a fresh gather of the shrunk problem.
  void compact(std::size_t slot, std::span<const std::size_t> drop_rows);

  std::size_t num_tasks() const noexcept { return tasks_; }
  std::size_t num_slots() const noexcept { return slots_; }

  /// ETC row of the task at position `task_pos` in problem.tasks(), indexed
  /// by machine slot. Hot-path accessor: `task_pos` must be in range.
  std::span<const double> row(std::size_t task_pos) const noexcept {
    return std::span<const double>(data_).subspan(task_pos * slots_, slots_);
  }

 private:
  std::size_t tasks_ = 0;
  std::size_t slots_ = 0;
  std::vector<double> data_{};
};

}  // namespace hcsched::heuristics::fastpath
