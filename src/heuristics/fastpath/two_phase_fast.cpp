// The incremental two-phase greedy kernel (see fastpath.hpp for the
// dispatch surface and docs/FASTPATH.md for the full equivalence argument).
//
// Invalidation invariant: a round changes exactly one ready time, and ready
// times never decrease. For a surviving task whose tied best set did NOT
// contain the updated slot, every tied candidate's completion time is
// unchanged and the updated slot's score only moved further above the
// minimum, so the task's candidate set — and therefore the TieBreaker's
// decision distribution — is bit-identical to a full rescore. Tasks whose
// tied set contained the updated slot are rescored from scratch: the
// minimum may migrate, and previously-out candidates equal to the *new*
// minimum may enter the set.
//
// A round costs only the work that changed:
//  * Invalidation. A task with a singleton tied set sits on the reverse
//    list of its one slot, so the updated slot's list is exactly the
//    singletons to rescore (and is emptied: each of them relinks after its
//    rescore). Tasks with a genuine tie (more than one tied slot) are kept
//    in a bitset over positions and tested for the slot directly; they are
//    walked every round anyway to redraw.
//  * Phase 1. A singleton decision consumes no RNG draw and no script
//    entry, so the round's singletons are accounted in one
//    TieBreaker::account_unique call. Genuine ties call choose_among for
//    real, in ascending position order, so the RNG / script stream stays in
//    lockstep with the reference's choose_min over every task in list order.
//  * Phase 2. A min tournament tree over positions holds each task's
//    phase-one completion time (negated for Max-Min; dead positions hold
//    +inf). The root is the reference's target, and descending only into
//    subtrees whose minimum ties the target enumerates its tied set in
//    ascending position order — the order of the reference's
//    erase()-maintained list. Only leaves whose completion time changed are
//    updated: rescored tasks, redrawn genuine ties and the picked task.
//
// Per-task state lives in structure-of-arrays slices from the thread
// workspace's bump pools (workspace.hpp): zero steady-state allocations
// across a study cell's trials, and the rescore is the packed row scan
// (minscan.hpp) over a contiguous EtcView row.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
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

namespace {

constexpr std::size_t kWordBits = std::numeric_limits<std::size_t>::digits;
constexpr std::uint32_t kEndOfList = std::numeric_limits<std::uint32_t>::max();
constexpr double kDead = std::numeric_limits<double>::infinity();

/// Calls f(position) for every set bit of `words`, in ascending order. `f`
/// may clear bits of the word being walked.
template <typename F>
void for_each_set_bit(std::span<const std::size_t> words, F&& f) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::size_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

Schedule two_phase_greedy_fast(const Problem& problem, TieBreaker& ties,
                               bool prefer_largest) {
  Schedule schedule(problem);
  const std::size_t n = problem.num_tasks();
  const std::size_t m = problem.num_machines();
  if (n == 0) return schedule;
  HCSCHED_PRECONDITION(m > 0, "two_phase_greedy_fast: problem with ", n,
                       " tasks but no machines");
  HCSCHED_PRECONDITION(n < kEndOfList, "two_phase_greedy_fast: ", n,
                       " tasks overflow 32-bit positions");

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
  const sched::EtcView view(problem);

  // Structure-of-arrays per-task state: the cached phase-one decision is a
  // best slot, its completion time (the tree leaf), and the tied candidate
  // list (ascending slots — exactly what choose_min would build from the
  // full score vector), stored as a fixed-stride slice of one flat pool.
  const std::size_t leaves = std::bit_ceil(n);
  const std::size_t words = (n + kWordBits - 1) / kWordBits;
  ws.doubles.reset(m + 2 * leaves);
  ws.positions.reset(n * m + 2 * n + words);
  ws.indices.reset(3 * n + m);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> tree = ws.doubles.take(2 * leaves);
  const std::span<std::size_t> tied_pool = ws.positions.take(n * m);
  const std::span<std::size_t> stale = ws.positions.take(n);
  const std::span<std::size_t> round_tied = ws.positions.take(n);
  const std::span<std::size_t> genuine = ws.positions.take(words);
  const std::span<std::uint32_t> best_slot = ws.indices.take(n);
  const std::span<std::uint32_t> tied_count = ws.indices.take(n);
  const std::span<std::uint32_t> next_on_slot = ws.indices.take(n);
  const std::span<std::uint32_t> slot_head = ws.indices.take(m);

  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());
  std::fill(tree.begin(), tree.end(), kDead);
  std::fill(slot_head.begin(), slot_head.end(), kEndOfList);

  const auto tied_set = [&](std::size_t p) {
    return std::span<const std::size_t>(tied_pool.data() + p * m,
                                        tied_count[p]);
  };
  // Sets position p's key and repairs the minima above it, stopping where
  // they no longer change.
  const auto set_leaf = [&](std::size_t p, double key) {
    std::size_t i = leaves + p;
    tree[i] = key;
    for (i /= 2; i > 0; i /= 2) {
      const double lowest = std::min(tree[2 * i], tree[2 * i + 1]);
      if (tree[i] == lowest) break;
      tree[i] = lowest;
    }
  };
  // The tree's key for a phase-one completion time.
  const auto set_ct = [&](std::size_t p, double ct) {
    set_leaf(p, prefer_largest ? -ct : ct);
  };
  const auto mark_genuine = [&](std::size_t p, bool on) {
    const std::size_t bit = std::size_t{1} << (p % kWordBits);
    genuine[p / kWordBits] = on ? (genuine[p / kWordBits] | bit)
                                : (genuine[p / kWordBits] & ~bit);
  };
  // Full phase-one score of task p against the current ready times. A
  // singleton result is final for the round (cached, linked on its slot's
  // list, leaf updated); a genuine tie waits for the phase-one redraw.
  const auto rescore = [&](std::size_t p) {
    const double* const etc_row = view.row(p).data();
    std::size_t* const tied = tied_pool.data() + p * m;
    const std::size_t tcount =
        minscan::sufferage_scan(ready.data(), etc_row, m, tied).tied_count;
    tied_count[p] = static_cast<std::uint32_t>(tcount);
    if (tcount != 1) {
      mark_genuine(p, true);
      return;
    }
    const std::size_t slot = tied[0];
    best_slot[p] = static_cast<std::uint32_t>(slot);
    next_on_slot[p] = slot_head[slot];
    slot_head[slot] = static_cast<std::uint32_t>(p);
    set_ct(p, ready[slot] + etc_row[slot]);
  };

  // Round 0: everything needs a full score.
  std::size_t stale_count = n;
  for (std::size_t p = 0; p < n; ++p) stale[p] = p;

  std::size_t remaining = n;
  while (remaining > 0) {
    // Phase 1: rescore the invalidated tasks, redraw the genuine ties in
    // list order, and account every other task's singleton decision.
    for (std::size_t i = 0; i < stale_count; ++i) rescore(stale[i]);
    HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, stale_count * m);
    HCSCHED_COUNT(obs::Counter::kFastpathRescores, stale_count);
    HCSCHED_COUNT(obs::Counter::kFastpathReplays, remaining - stale_count);
#if HCSCHED_TRACE
    rescores += stale_count;
    replays += remaining - stale_count;
#endif
    std::size_t redraws = 0;
    for_each_set_bit(genuine, [&](std::size_t p) {
      // Re-drawn every round even from cache: under TiePolicy::kRandom the
      // reference re-rolls tied candidates each round.
      const std::size_t chosen = ties.choose_among(tied_set(p));
      best_slot[p] = static_cast<std::uint32_t>(chosen);
      set_ct(p, ready[chosen] + view.row(p)[chosen]);
      ++redraws;
    });
    ties.account_unique(remaining - redraws);

    // Phase 2: the root is the reference's min (Min-Min) or, negated, max
    // (Max-Min) phase-one completion time. A subtree whose minimum is not
    // the target holds no leaf equal to it (every key is >= the target);
    // the left-first descent lists ties in ascending position order.
    const double target = tree[1];
    std::size_t tied_n = 0;
    // Holds at most one right sibling per level plus two children: 33
    // entries for 32-bit positions.
    std::array<std::size_t, kWordBits> pending{};
    std::size_t depth = 0;
    pending[depth++] = 1;
    while (depth > 0) {
      const std::size_t node = pending[--depth];
      if (tree[node] != target) continue;
      if (node >= leaves) {
        round_tied[tied_n++] = node - leaves;
        continue;
      }
      pending[depth++] = 2 * node + 1;
      pending[depth++] = 2 * node;
    }
    const std::size_t pick = ties.choose_among(
        std::span<const std::size_t>(round_tied.data(), tied_n));
    const std::size_t slot = best_slot[pick];
    ready[slot] = schedule.assign(problem.tasks()[pick],
                                  problem.machines()[slot]);
    set_leaf(pick, kDead);
    mark_genuine(pick, false);
    --remaining;

    // Invalidate the survivors whose cached candidate set involved the
    // updated slot; everyone else replays next round. The picked task, if
    // a singleton, is on this list too and is skipped.
    stale_count = 0;
    for (std::uint32_t q = slot_head[slot]; q != kEndOfList;
         q = next_on_slot[q]) {
      if (q != pick) stale[stale_count++] = q;
    }
    slot_head[slot] = kEndOfList;
    for_each_set_bit(genuine, [&](std::size_t p) {
      const std::span<const std::size_t> tied = tied_set(p);
      if (std::binary_search(tied.begin(), tied.end(), slot)) {
        mark_genuine(p, false);
        stale[stale_count++] = p;
      }
    });
  }
  HCSCHED_SPAN_ATTR(kernel_span, "rescores", obs::JsonValue(rescores));
  HCSCHED_SPAN_ATTR(kernel_span, "replays", obs::JsonValue(replays));
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
