// Incremental fast-path kernel for the two-phase greedy heuristics
// (Min-Min / Max-Min, and Duplex which runs both).
//
// The reference implementation (heuristics::detail::two_phase_greedy_reference
// in minmin.cpp) rescores every unmapped task on every machine each round —
// O(rounds x tasks x machines). The kernel here exploits the fact that one
// round changes exactly one machine's ready time, and ready times only grow:
// a surviving task's phase-one decision can change ONLY if the updated
// machine slot was inside its tied best set. All other tasks keep a
// bit-identical candidate set and merely *replay* their decision. A round
// therefore costs only the work that changed: invalidated tasks come off
// per-slot reverse lists, singleton replays are accounted in bulk
// (TieBreaker::account_unique, no RNG draw or script entry, exactly as the
// reference's one-candidate decisions), genuine ties redraw in list order,
// and phase two reads its target and tied set off a tournament tree. The
// decision/tie-event counts and the RNG or script stream match the
// reference exactly (docs/FASTPATH.md states the invariant and the
// equivalence argument; tests/test_fastpath_differential.cpp enforces it).
//
// Production always dispatches to the kernels. The reference loops stay
// reachable through one test seam, ScopedMode, which the differential
// suite and the paper-example tests use to run both paths. MET, MCT, OLB
// and SWA have no kernel: each of their rounds is already one scan, so a
// kernel buys little (SWA's bought about 1.2x per run; docs/FASTPATH.md).
#pragma once

#include <span>

#include "heuristics/heuristic.hpp"
#include "heuristics/kpb.hpp"
#include "heuristics/sufferage.hpp"

// Always 1: the kernels are the only production dispatch. Kept as a plain
// constant because bench/pipeline/main.cpp records it in its build
// fingerprint.
#define HCSCHED_FASTPATH 1

namespace hcsched::heuristics::fastpath {

/// True when the fastpath-covered heuristics dispatch to their kernels:
/// always, unless a ScopedMode(false) is alive.
bool enabled() noexcept;

/// Test seam: selects the kernels (true) or the reference loops (false)
/// for its scope and restores the previous state on exit. The state is
/// process-wide, so a scope covers worker threads too; do not open scopes
/// from concurrent threads.
class ScopedMode {
 public:
  explicit ScopedMode(bool use_kernels) noexcept;
  ~ScopedMode();
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  bool previous_;
};

// ---------------------------------------------------------------------------
// Kernels. Every kernel produces output equivalent to its reference loop
// under every TiePolicy: identical assignments (same order), identical
// completion-time vectors, identical TieBreaker decision and tie-event
// counts, identical RNG/script consumption. Only the etc_cell_evaluations
// counter may differ (it reports the work actually done, which is the
// point). Each kernel gathers the problem's ETC rows once per call into a
// local sched::EtcView; only KPB's rankings outlive a call
// (reuse.hpp). docs/FASTPATH.md carries the per-kernel equivalence
// arguments; tests/test_fastpath_differential.cpp and
// tests/fastpath_fuzz.cpp enforce them.

/// Two-phase greedy (Min-Min / Max-Min, and Duplex which runs both):
/// cached phase-one decisions replayed until the updated machine slot
/// enters a task's tied best set; phase two on a min tournament
/// tree over task positions (keys negated for Max-Min).
Schedule two_phase_greedy_fast(const Problem& problem, TieBreaker& ties,
                               bool prefer_largest);

/// Sufferage: one fused best-two / tied-set scan of each pending task's
/// view row per pass. Nothing is cached across passes: every task that
/// survives a pass lost a slot from its tied set that then commits, so its
/// scan is stale anyway (sufferage_fast.cpp).
Schedule sufferage_fast(const Problem& problem, TieBreaker& ties,
                        SufferageRequeue requeue,
                        std::vector<SufferageStep>* trace);

/// K-Percent Best: cached per-task machine rankings (reused across
/// iterative iterations) feeding a k-subset min-scan. `subset_size` is
/// Kpb::subset_size(problem.num_machines()).
Schedule kpb_fast(const Problem& problem, TieBreaker& ties,
                  std::size_t subset_size, std::vector<KpbStep>* trace);

// ---------------------------------------------------------------------------
// Dispatch table: the single source of truth for which heuristics have a
// kernel (Min-Min, Max-Min, Sufferage and KPB). The differential suite,
// the fuzzer and the bench derive their coverage from this table, so
// adding a kernel without registering it here cannot silently escape the
// equivalence matrix (and the table's canonical `name` ties each entry
// back to heuristics::make_heuristic for the iterative-loop differential).

enum class Kernel : std::uint8_t {
  kMinMin,
  kMaxMin,
  kSufferage,
  kKpb,
};

struct KernelInfo {
  Kernel kernel;
  /// Canonical registry spelling (heuristics/registry.hpp).
  const char* name;
  /// Reference loop and kernel with the heuristic's default knobs —
  /// identically-callable adapters for differential comparison.
  Schedule (*reference)(const Problem& problem, TieBreaker& ties);
  Schedule (*fast)(const Problem& problem, TieBreaker& ties);
};

/// All fastpath-covered heuristics, in enum order.
std::span<const KernelInfo> kernel_table() noexcept;

/// Table row for `kernel`; never null.
const KernelInfo* find_kernel(Kernel kernel) noexcept;

}  // namespace hcsched::heuristics::fastpath
