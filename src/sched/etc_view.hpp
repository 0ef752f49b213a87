// EtcView: a contiguous copy of the ETC cells a Problem can see, gathered
// once per map by every code path that scans them hot — the fastpath
// kernels and ga::Evaluator.
//
// Problem::etc_at(task, slot) reads the task's full matrix row through the
// machine-id vector on every call; a view row is one flat buffer instead.
// Cells are stored with the machine slot as the minor (contiguous)
// dimension — row(p) is task p's completion-cost row across the problem's
// machine slots — because every rescore walks exactly that row, and the
// fastpath min-scan walks it at unit stride. Values are verbatim copies of
// the matrix doubles, so arithmetic on a view row is bit-identical to
// arithmetic through Problem::etc_at.
//
// A view lives for one map and is never updated: a fresh gather each round
// of the iterative technique costs about what compacting the previous
// round's view would (docs/FASTPATH.md, "Incremental iteration").
#pragma once

#include <span>
#include <vector>

#include "sched/problem.hpp"

namespace hcsched::sched {

class EtcView {
 public:
  /// Gathers the problem's tasks x machine-slots submatrix. O(T x M).
  explicit EtcView(const Problem& problem);

  std::size_t num_tasks() const noexcept { return tasks_; }

  /// ETC row of the task at position `task_pos` in problem.tasks(), indexed
  /// by machine slot. Hot-path accessor: `task_pos` must be in range.
  std::span<const double> row(std::size_t task_pos) const noexcept {
    return std::span<const double>(data_).subspan(task_pos * slots_, slots_);
  }

 private:
  std::size_t tasks_;
  std::size_t slots_;
  std::vector<double> data_;
};

}  // namespace hcsched::sched
