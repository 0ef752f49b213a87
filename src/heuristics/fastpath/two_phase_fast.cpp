// The incremental two-phase greedy kernel (see fastpath.hpp for the switch
// surface and docs/FASTPATH.md for the full equivalence argument).
//
// Invalidation invariant: a round changes exactly one ready time, and ready
// times never decrease. For a surviving task whose epsilon-tied best set
// did NOT contain the updated slot, every tied candidate's completion time
// is unchanged and the updated slot's score only moved further above the
// minimum, so the task's candidate set — and therefore the TieBreaker's
// decision distribution — is bit-identical to a full rescore. Such tasks
// only *replay* their decision through TieBreaker::choose_among, which
// performs the same bookkeeping (one decision, one tie event iff the set
// has >1 candidates, one RNG draw / script entry iff a tie event) as the
// reference's choose_min over the full score vector. Tasks whose tied set
// contained the updated slot are rescored from scratch: the minimum may
// migrate, and previously-out candidates within epsilon of the *new*
// minimum may enter the set.
//
// Per-task state lives in structure-of-arrays slices from the thread
// workspace's bump pools (workspace.hpp): zero steady-state allocations
// across a study cell's trials, and the rescore is a vectorized fused
// min-scan (minscan.hpp) over a contiguous EtcView row.
#include <algorithm>
#include <span>

#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/minscan.hpp"
#include "heuristics/fastpath/reuse.hpp"
#include "heuristics/fastpath/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace hcsched::heuristics::fastpath {

Schedule two_phase_greedy_fast(const Problem& problem, TieBreaker& ties,
                               bool prefer_largest) {
  Schedule schedule(problem);
  const std::size_t n = problem.num_tasks();
  const std::size_t m = problem.num_machines();
  if (n == 0) return schedule;
  HCSCHED_PRECONDITION(m > 0, "two_phase_greedy_fast: problem with ", n,
                       " tasks but no machines");

  // One span per kernel invocation with the rescore/replay split as
  // attributes — per-decision spans would dwarf the work they measure.
  HCSCHED_SPAN(kernel_span, "fastpath.two_phase");
  HCSCHED_SPAN_ATTR(kernel_span, "tasks", obs::JsonValue(n));
  HCSCHED_SPAN_ATTR(kernel_span, "machines", obs::JsonValue(m));
  HCSCHED_SPAN_ATTR(kernel_span, "prefer_largest",
                    obs::JsonValue(prefer_largest));
#if HCSCHED_TRACE
  std::uint64_t rescores = 0;
  std::uint64_t replays = 0;
#endif

  Workspace& ws = thread_workspace();
  const EtcView& view = acquire_view(problem, ws.scratch_view);

  // Structure-of-arrays per-task state: the cached phase-one decision is a
  // best slot, its completion time, and the epsilon-tied candidate list
  // (ascending slots — exactly what choose_min would build from the full
  // score vector), stored as a fixed-stride slice of one flat pool.
  ws.doubles.reset(m + n);
  ws.positions.reset(n * m);
  ws.indices.reset(2 * n);
  ws.flags.reset(2 * n);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> best_ct = ws.doubles.take(n);
  const std::span<std::size_t> tied_pool = ws.positions.take(n * m);
  const std::span<std::uint32_t> best_slot = ws.indices.take(n);
  const std::span<std::uint32_t> tied_count = ws.indices.take(n);
  const std::span<unsigned char> alive = ws.flags.take(n);
  const std::span<unsigned char> stale = ws.flags.take(n);

  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());
  std::fill(alive.begin(), alive.end(), static_cast<unsigned char>(1));
  // Round 0: everything needs a full score.
  std::fill(stale.begin(), stale.end(), static_cast<unsigned char>(1));
  SmallVec<std::size_t, 8> round_tied;

  std::size_t remaining = n;
  while (remaining > 0) {
    // Phase 1: one TieBreaker decision per unmapped task, in list order,
    // exactly as the reference — rescoring only the stale tasks.
    for (std::size_t p = 0; p < n; ++p) {
      if (alive[p] == 0) continue;
      const std::span<const double> etc_row = view.row(p);
      std::size_t* const tied = tied_pool.data() + p * m;
      if (stale[p] != 0) {
        HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, m);
        HCSCHED_COUNT(obs::Counter::kFastpathRescores);
#if HCSCHED_TRACE
        ++rescores;
#endif
        const double best =
            minscan::min_completion(ready.data(), etc_row.data(), m);
        std::size_t tcount = 0;
        for (std::size_t slot = 0; slot < m; ++slot) {
          if (ties.tied(best, ready[slot] + etc_row[slot])) {
            tied[tcount++] = slot;
          }
        }
        tied_count[p] = static_cast<std::uint32_t>(tcount);
        stale[p] = 0;
      } else {
        HCSCHED_COUNT(obs::Counter::kFastpathReplays);
#if HCSCHED_TRACE
        ++replays;
#endif
      }
      // Re-drawn every round even from cache: under TiePolicy::kRandom the
      // reference re-rolls tied candidates each round, and the decision /
      // tie-event counts must match under every policy.
      const std::size_t chosen = ties.choose_among(
          std::span<const std::size_t>(tied, tied_count[p]));
      best_slot[p] = static_cast<std::uint32_t>(chosen);
      best_ct[p] = ready[chosen] + etc_row[chosen];
    }

    // Phase 2: pick the task with the minimum (Min-Min) or maximum
    // (Max-Min) phase-one completion time. Positions ascend in original
    // list order — the same order the reference's erase()-maintained list
    // presents to choose_min/choose_max — so the candidate list passed to
    // the TieBreaker corresponds element-for-element.
    double target = 0.0;
    bool first = true;
    for (std::size_t p = 0; p < n; ++p) {
      if (alive[p] == 0) continue;
      const double ct = best_ct[p];
      if (first) {
        target = ct;
        first = false;
      } else {
        target = prefer_largest ? std::max(target, ct) : std::min(target, ct);
      }
    }
    round_tied.clear();
    for (std::size_t p = 0; p < n; ++p) {
      if (alive[p] != 0 && ties.tied(target, best_ct[p])) {
        round_tied.push_back(p);
      }
    }
    const std::size_t pick = ties.choose_among(round_tied.as_span());
    const std::size_t slot = best_slot[pick];
    ready[slot] = schedule.assign(problem.tasks()[pick],
                                  problem.machines()[slot]);
    alive[pick] = 0;
    --remaining;

    // Invalidate the survivors whose cached candidate set involved the
    // updated slot; everyone else replays next round. The tied sets are
    // almost always singletons, so this sweep is O(remaining).
    for (std::size_t p = 0; p < n; ++p) {
      if (alive[p] == 0 || stale[p] != 0) continue;
      const std::size_t* const tied = tied_pool.data() + p * m;
      const std::size_t* const tied_end = tied + tied_count[p];
      if (std::find(tied, tied_end, slot) != tied_end) stale[p] = 1;
    }
  }
  HCSCHED_SPAN_ATTR(kernel_span, "rescores", obs::JsonValue(rescores));
  HCSCHED_SPAN_ATTR(kernel_span, "replays", obs::JsonValue(replays));
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
