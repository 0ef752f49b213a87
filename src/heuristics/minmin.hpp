// Min-Min — paper §3.2, Figure 2; Ibarra & Kim [8].
//
// Two-phase greedy: phase one finds, for every unmapped task, the machine
// giving its minimum completion time; phase two maps the task whose minimum
// completion time is smallest, updates that machine's ready time, and
// repeats. Ties arise in both phases; the paper's theorem (§3.2) proves the
// iterative technique cannot change a Min-Min mapping when both are broken
// deterministically, and its Table 1-3 example shows random ties can
// increase the makespan. Complexity O(|T|^2 |M|).
//
// Max-Min (paper-cited companion heuristic from the same literature) shares
// the phase-one scan but phase two picks the task whose minimum completion
// time is LARGEST — it front-loads long tasks. Both are thin wrappers over
// the shared two-phase core in this translation unit.
#pragma once

#include "heuristics/heuristic.hpp"

namespace hcsched::heuristics {

class MinMin final : public Heuristic {
 public:
  std::string_view name() const noexcept override { return "Min-Min"; }
  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;
};

class MaxMin final : public Heuristic {
 public:
  std::string_view name() const noexcept override { return "Max-Min"; }
  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;
};

namespace detail {
/// Shared two-phase driver; `prefer_largest` selects Max-Min's phase two.
/// Dispatches to the incremental kernel (heuristics/fastpath/) when
/// fastpath::enabled(), otherwise to the reference loop below.
Schedule two_phase_greedy(const Problem& problem, TieBreaker& ties,
                          bool prefer_largest);

/// The reference implementation: full O(tasks x machines) rescore every
/// round. The oracle the differential suite
/// (tests/test_fastpath_differential.cpp, tests/fastpath_fuzz.cpp) compares
/// the fast path against; dispatched to only under the test seam
/// fastpath::ScopedMode(false).
Schedule two_phase_greedy_reference(const Problem& problem, TieBreaker& ties,
                                    bool prefer_largest);
}  // namespace detail

}  // namespace hcsched::heuristics
