// The incremental Sufferage kernel (see fastpath.hpp for the switch surface
// and docs/FASTPATH.md for the full equivalence argument).
//
// Cache: for each pending task, the exact minimum completion time `min1`,
// the first slot attaining it `min1_slot`, the minimum over every other
// slot `min2` with its first attaining slot `min2_slot`, and the
// epsilon-tied candidate list (ascending slots within TieBreaker epsilon of
// min1 — exactly what the reference's choose_min builds). The decision
// replays through choose_among (same bookkeeping, same RNG/script draws),
// and the sufferage value follows exactly:
//     second_ct = (chosen == min1_slot) ? min2 : min1
// because when the chosen slot is not the first exact-minimum slot, the
// min-over-others set still contains min1_slot.
//
// Invalidation: a pass commits one claim per contested slot; a cached entry
// goes stale iff some committed slot is in its tied set or is its
// min2_slot (any other slot's score sat strictly above min2 and only
// moved further up — ready times never decrease). Note the structure of
// claim/evict makes this invalidation total in practice: every task that
// survives a pass fought over a slot that ends up committed, so surviving
// entries are rescanned. The kernel's win over the reference is therefore
// the scan itself — one fused best-two/tied scan
// (minscan::sufferage_scan) over a contiguous EtcView row, against the
// reference's four indirection-heavy passes — not replay frequency; the
// cache keeps the replay path correct should the requeue semantics ever
// change.
#include <algorithm>
#include <limits>
#include <span>

#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/minscan.hpp"
#include "heuristics/fastpath/reuse.hpp"
#include "heuristics/fastpath/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace hcsched::heuristics::fastpath {

Schedule sufferage_fast(const Problem& problem, TieBreaker& ties,
                        SufferageRequeue requeue,
                        std::vector<SufferageStep>* trace) {
  Schedule schedule(problem);
  const std::size_t n = problem.num_tasks();
  const std::size_t m = problem.num_machines();
  if (n == 0) return schedule;
  HCSCHED_PRECONDITION(m > 0, "sufferage_fast: problem with ", n,
                       " tasks but no machines");

  HCSCHED_SPAN(kernel_span, "fastpath.sufferage");
  HCSCHED_SPAN_ATTR(kernel_span, "tasks", obs::JsonValue(n));
  HCSCHED_SPAN_ATTR(kernel_span, "machines", obs::JsonValue(m));
#if HCSCHED_TRACE
  std::uint64_t rescores = 0;
  std::uint64_t replays = 0;
#endif

  Workspace& ws = thread_workspace();
  const EtcView& view = acquire_view(problem, ws.scratch_view);

  // Structure-of-arrays per-task state carved from the thread's bump pools.
  ws.doubles.reset(3 * m + 2 * n);
  ws.positions.reset(n * m);
  ws.indices.reset(5 * n + m);
  ws.flags.reset(n);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> claim_suff = ws.doubles.take(m);
  const std::span<double> claim_ct = ws.doubles.take(m);
  const std::span<double> min1 = ws.doubles.take(n);
  const std::span<double> min2 = ws.doubles.take(n);
  const std::span<std::size_t> tied_pool = ws.positions.take(n * m);
  const std::span<std::uint32_t> min1_slot = ws.indices.take(n);
  const std::span<std::uint32_t> min2_slot = ws.indices.take(n);
  const std::span<std::uint32_t> tied_count = ws.indices.take(n);
  const std::span<std::uint32_t> pending_a = ws.indices.take(n);
  const std::span<std::uint32_t> pending_b = ws.indices.take(n);
  const std::span<std::uint32_t> claim_pos = ws.indices.take(m);
  const std::span<unsigned char> stale = ws.flags.take(n);

  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());
  for (std::size_t p = 0; p < n; ++p) {
    pending_a[p] = static_cast<std::uint32_t>(p);
  }
  std::fill(stale.begin(), stale.end(), static_cast<unsigned char>(1));

  const std::vector<TaskId>& tasks = problem.tasks();
  const std::vector<MachineId>& machines = problem.machines();
  constexpr std::uint32_t kNoClaim =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t* cur = pending_a.data();
  std::uint32_t* nxt = pending_b.data();
  std::size_t pending_count = n;
  std::size_t pass = 0;
  while (pending_count > 0) {
    ++pass;
    std::fill(claim_pos.begin(), claim_pos.end(), kNoClaim);
    std::size_t next_count = 0;

    for (std::size_t i = 0; i < pending_count; ++i) {
      const std::uint32_t p = cur[i];
      const std::span<const double> row = view.row(p);
      std::size_t* const tied = tied_pool.data() + static_cast<std::size_t>(p) * m;
      if (stale[p] != 0) {
        HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, m);
        HCSCHED_COUNT(obs::Counter::kFastpathRescores);
#if HCSCHED_TRACE
        ++rescores;
#endif
        // One fused pass: exact minimum with its first attaining
        // slot, minimum over the rest with one attaining slot, and the
        // ascending epsilon-tied candidate list. The scan's tie predicate is
        // bit-identical to ties.tied(min1, score) — see minscan.hpp.
        const minscan::SufferageScan scan = minscan::sufferage_scan(
            ready.data(), row.data(), m, ties.epsilon(), tied);
        min1[p] = scan.min1;
        min2[p] = scan.min2;
        min1_slot[p] = static_cast<std::uint32_t>(scan.min1_slot);
        min2_slot[p] = static_cast<std::uint32_t>(scan.min2_slot);
        tied_count[p] = static_cast<std::uint32_t>(scan.tied_count);
        stale[p] = 0;
      } else {
        HCSCHED_COUNT(obs::Counter::kFastpathReplays);
#if HCSCHED_TRACE
        ++replays;
#endif
      }
      // One decision per pending task per pass, exactly as the reference's
      // choose_min over the full score vector.
      const std::size_t best_slot = ties.choose_among(
          std::span<const std::size_t>(tied, tied_count[p]));
      const double best_ct = ready[best_slot] + row[best_slot];
      const double second_ct =
          m == 1 ? best_ct
                 : (best_slot == min1_slot[p] ? min2[p] : min1[p]);
      const double suff = second_ct - best_ct;

      // Claim/evict, bit-identical to the reference (exact sufferage tie
      // keeps the incumbent; evicted/rejected tasks queue in encounter
      // order).
      if (claim_pos[best_slot] == kNoClaim) {
        claim_pos[best_slot] = p;
        claim_suff[best_slot] = suff;
        claim_ct[best_slot] = best_ct;
      } else if (claim_suff[best_slot] < suff) {
        nxt[next_count++] = claim_pos[best_slot];
        claim_pos[best_slot] = p;
        claim_suff[best_slot] = suff;
        claim_ct[best_slot] = best_ct;
      } else {
        nxt[next_count++] = p;
      }
    }

    // Commit this pass's claims in ascending slot order (Figure 17 step
    // iii). claim_pos doubles as the committed-slot set for the
    // invalidation sweep below — a slot moved iff it holds a claim.
    for (std::size_t slot = 0; slot < m; ++slot) {
      const std::uint32_t p = claim_pos[slot];
      if (p == kNoClaim) continue;
      ready[slot] = schedule.assign(tasks[p], machines[slot]);
      if (trace != nullptr) {
        trace->push_back(SufferageStep{pass, tasks[p], machines[slot],
                                       claim_ct[slot], claim_suff[slot]});
      }
    }

    // Positions are original list positions, so kOriginalOrder is a plain
    // ascending sort — the same order the reference's position table yields.
    if (requeue == SufferageRequeue::kOriginalOrder) {
      std::sort(nxt, nxt + next_count);
    }

    // Invalidate survivors whose cached neighborhood saw a committed slot:
    // the tied list (usually one entry) and min2_slot probe claim_pos
    // directly instead of walking the committed set per survivor.
    for (std::size_t i = 0; i < next_count; ++i) {
      const std::uint32_t p = nxt[i];
      if (stale[p] != 0) continue;
      if (claim_pos[min2_slot[p]] != kNoClaim) {
        stale[p] = 1;
        continue;
      }
      const std::size_t* const tied =
          tied_pool.data() + static_cast<std::size_t>(p) * m;
      const std::size_t* const tied_end = tied + tied_count[p];
      for (const std::size_t* t = tied; t != tied_end; ++t) {
        if (claim_pos[*t] != kNoClaim) {
          stale[p] = 1;
          break;
        }
      }
    }

    std::swap(cur, nxt);
    pending_count = next_count;
  }

  HCSCHED_SPAN_ATTR(kernel_span, "passes", obs::JsonValue(pass));
  HCSCHED_SPAN_ATTR(kernel_span, "rescores", obs::JsonValue(rescores));
  HCSCHED_SPAN_ATTR(kernel_span, "replays", obs::JsonValue(replays));
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
