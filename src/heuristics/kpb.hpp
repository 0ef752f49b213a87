// K-Percent Best (KPB) — paper §3.6, Figure 14; Maheswaran et al. [14].
//
// A hybrid of MET and MCT: for each task (in list order) form the subset of
// the floor(|M| * k / 100) machines with the best (smallest) ETC for that
// task — never fewer than one — then assign the task to the machine of that
// subset giving the earliest completion time. k = 100% degenerates to MCT;
// a subset of size one degenerates to MET. The paper's k = 70% example
// (Tables 12-14) increases makespan under the iterative technique precisely
// because the subset size drops from two machines to one when the makespan
// machine is removed.
//
// Determinism note: ETC ties during subset formation are resolved toward the
// lower machine slot (stable sort), independent of the TieBreaker; the
// TieBreaker handles completion-time ties inside the subset.
#pragma once

#include "heuristics/heuristic.hpp"

namespace hcsched::heuristics {

/// Per-task trace row (paper Table 13's "K-%" column: the machine subset
/// considered for the task).
struct KpbStep {
  TaskId task = -1;
  MachineId machine = -1;                ///< machine chosen
  double completion = 0.0;               ///< resulting completion time
  std::vector<MachineId> subset{};       ///< the k-percent-best machines
};

class Kpb final : public Heuristic {
 public:
  /// `k_percent` in (0, 100].
  explicit Kpb(double k_percent = 70.0);

  std::string_view name() const noexcept override { return "KPB"; }
  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;

  Schedule map_traced(const Problem& problem, TieBreaker& ties,
                      std::vector<KpbStep>* trace) const;

  double k_percent() const noexcept { return k_percent_; }

  /// Subset size for a suite of `machines` machines: max(1, floor(m*k/100)).
  std::size_t subset_size(std::size_t machines) const noexcept;

 private:
  double k_percent_;
};

namespace detail {
/// The reference loop: full stable sort of every machine slot by ETC per
/// task. `subset_size` is Kpb::subset_size(problem.num_machines()). The
/// oracle for fastpath::kpb_fast; dispatched to only under the test seam
/// fastpath::ScopedMode(false).
Schedule kpb_reference(const Problem& problem, TieBreaker& ties,
                       std::size_t subset_size, std::vector<KpbStep>* trace);
}  // namespace detail

}  // namespace hcsched::heuristics
