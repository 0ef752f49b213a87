// The Sufferage kernel (see fastpath.hpp for the switch surface and
// docs/FASTPATH.md for the full equivalence argument).
//
// Each pass rescans every pending task once: one fused scan
// (minscan::sufferage_scan) over a contiguous EtcView row yields the exact
// minimum completion time `min1`, the first slot attaining it `min1_slot`,
// the minimum over every other slot `min2`, and the tied candidate list
// (ascending slots whose score equals min1 — exactly what the reference's
// choose_min builds). The decision goes through choose_among
// (same bookkeeping, same RNG/script draws), and the sufferage value follows
// exactly:
//     second_ct = (chosen == min1_slot) ? min2 : min1
// because when the chosen slot is not the first exact-minimum slot, the
// min-over-others set still contains min1_slot (with m == 1 the scan
// returns min2 == min1, so the sufferage is 0 as in the reference).
//
// No scan survives a pass to be reused: a task queued for the next pass
// chose a slot from its tied set, and that slot ends the pass claimed —
// by the task that evicted it or by the claimant that rejected it — so its
// ready time moved and the task must be rescanned anyway. The kernel's win
// over the reference is the scan itself, one packed pass over a contiguous
// row against the reference's four indirection-heavy passes.
// Under kOriginalOrder the next queue is this pass's ascending queue minus
// its committed claimants: a stable filter, no sort.
#include <algorithm>
#include <limits>
#include <span>

#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/minscan.hpp"
#include "heuristics/fastpath/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"
#include "sched/etc_view.hpp"

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
#endif

  Workspace& ws = thread_workspace();
  const sched::EtcView view(problem);

  // Per-slot claim state and the two pending queues, carved from the
  // thread's bump pools.
  ws.doubles.reset(3 * m);
  ws.positions.reset(m);
  ws.indices.reset(3 * n + m);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> claim_suff = ws.doubles.take(m);
  const std::span<double> claim_ct = ws.doubles.take(m);
  const std::span<std::size_t> tied = ws.positions.take(m);
  const std::span<std::uint32_t> pending_a = ws.indices.take(n);
  const std::span<std::uint32_t> pending_b = ws.indices.take(n);
  const std::span<std::uint32_t> claim_pos = ws.indices.take(m);
  const std::span<std::uint32_t> committed = ws.indices.take(n);

  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());
  for (std::size_t p = 0; p < n; ++p) {
    pending_a[p] = static_cast<std::uint32_t>(p);
  }
  std::fill(committed.begin(), committed.end(), 0u);

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
      HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, m);
      HCSCHED_COUNT(obs::Counter::kFastpathRescores);
#if HCSCHED_TRACE
      ++rescores;
#endif
      const minscan::SufferageScan scan =
          minscan::sufferage_scan(ready.data(), row.data(), m, tied.data());
      // One decision per pending task per pass, exactly as the reference's
      // choose_min over the full score vector.
      const std::size_t best_slot = ties.choose_among(
          std::span<const std::size_t>(tied.data(), scan.tied_count));
      const double best_ct = ready[best_slot] + row[best_slot];
      const double second_ct =
          best_slot == scan.min1_slot ? scan.min2 : scan.min1;
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
    // iii).
    for (std::size_t slot = 0; slot < m; ++slot) {
      const std::uint32_t p = claim_pos[slot];
      if (p == kNoClaim) continue;
      ready[slot] = schedule.assign(tasks[p], machines[slot]);
      committed[p] = 1;
      if (trace != nullptr) {
        trace->push_back(SufferageStep{pass, tasks[p], machines[slot],
                                       claim_ct[slot], claim_suff[slot]});
      }
    }

    // Positions are original list positions, ascending under
    // kOriginalOrder: the reference's position-table order.
    if (requeue == SufferageRequeue::kOriginalOrder) {
      next_count = 0;
      for (std::size_t i = 0; i < pending_count; ++i) {
        nxt[next_count] = cur[i];
        next_count += committed[cur[i]] == 0 ? 1u : 0u;
      }
    }

    std::swap(cur, nxt);
    pending_count = next_count;
  }

  HCSCHED_SPAN_ATTR(kernel_span, "passes", obs::JsonValue(pass));
  HCSCHED_SPAN_ATTR(kernel_span, "rescores", obs::JsonValue(rescores));
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
