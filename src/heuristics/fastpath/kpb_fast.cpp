// The K-Percent Best kernel (see fastpath.hpp for the switch surface and
// docs/FASTPATH.md for the full equivalence argument).
//
// The reference stable-sorts every machine slot by ETC for every task —
// O(T x M log M), each compare two Problem::etc_at reads. The ranking
// it produces is fully determined by the pair key (ETC, slot): stable_sort
// over iota order breaks ETC ties toward the lower slot. The kernel sorts
// the same key explicitly over contiguous EtcView rows, and only to depth k
// (partial_sort — the first k of the unique total order is all the subset
// scan reads). Under the iterative technique the full per-task rankings are
// cached in the IterativeReuse context and survive machine removal by
// order-preserving compaction: dropping one slot and renumbering the rest
// leaves exactly the order a fresh sort of the shrunk row would produce, so
// later iterations skip the sort entirely. The subset completion scan and
// choose_min see element-for-element the vector the reference builds, which
// preserves decision/tie-event counts and RNG/script consumption.
#include <algorithm>
#include <numeric>
#include <span>

#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/reuse.hpp"
#include "heuristics/fastpath/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"
#include "sched/etc_view.hpp"

namespace hcsched::heuristics::fastpath {

Schedule kpb_fast(const Problem& problem, TieBreaker& ties,
                  std::size_t subset_size, std::vector<KpbStep>* trace) {
  Schedule schedule(problem);
  const std::size_t n = problem.num_tasks();
  const std::size_t m = problem.num_machines();
  if (n == 0) return schedule;
  HCSCHED_PRECONDITION(subset_size >= 1 && subset_size <= m,
                       "kpb_fast: subset size ", subset_size, " of ", m,
                       " machines");
  const std::size_t k = subset_size;

  HCSCHED_SPAN(kernel_span, "fastpath.kpb");
  HCSCHED_SPAN_ATTR(kernel_span, "tasks", obs::JsonValue(n));
  HCSCHED_SPAN_ATTR(kernel_span, "machines", obs::JsonValue(m));
  HCSCHED_SPAN_ATTR(kernel_span, "k", obs::JsonValue(k));

  Workspace& ws = thread_workspace();
  const sched::EtcView view(problem);

  ws.doubles.reset(m + k);
  ws.indices.reset(m);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> subset_ct = ws.doubles.take(k);
  const std::span<std::uint32_t> local_rank = ws.indices.take(m);
  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());

  // Ranking source: the iterative context's cache when this mapping is an
  // iteration of the minimizer, else a per-task partial sort.
  const std::uint32_t* cache = nullptr;
  if (IterativeReuse* const reuse = active_reuse(problem)) {
    std::vector<std::uint32_t>& rankings = reuse->rankings();
    if (!reuse->rankings_built()) {
      rankings.resize(n * m);
      for (std::size_t p = 0; p < n; ++p) {
        const std::span<const double> row = view.row(p);
        std::uint32_t* const r = rankings.data() + p * m;
        std::iota(r, r + m, std::uint32_t{0});
        std::sort(r, r + m, [&](std::uint32_t a, std::uint32_t b) {
          return row[a] < row[b] || (row[a] == row[b] && a < b);
        });
      }
      reuse->mark_rankings_built();
    }
    // A removal of the problem that apply_removal missed shows up here.
    HCSCHED_INVARIANT(rankings.size() == n * m, "kpb_fast: ", rankings.size(),
                      " cached ranks for a ", n, " x ", m, " problem");
    cache = rankings.data();
  }

  const std::vector<TaskId>& tasks = problem.tasks();
  const std::vector<MachineId>& machines = problem.machines();
  for (std::size_t p = 0; p < n; ++p) {
    const std::span<const double> row = view.row(p);
    const std::uint32_t* rank;
    if (cache != nullptr) {
      rank = cache + p * m;
    } else {
      std::iota(local_rank.begin(), local_rank.end(), std::uint32_t{0});
      // (ETC, slot) is a unique total order, so the sorted k-prefix equals
      // the reference's full stable_sort prefix.
      std::partial_sort(local_rank.begin(),
                        local_rank.begin() + static_cast<std::ptrdiff_t>(k),
                        local_rank.end(),
                        [&](std::uint32_t a, std::uint32_t b) {
                          return row[a] < row[b] || (row[a] == row[b] && a < b);
                        });
      rank = local_rank.data();
    }
    for (std::size_t i = 0; i < k; ++i) {
      subset_ct[i] = ready[rank[i]] + row[rank[i]];
    }
    HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, k);
    const std::size_t pick = ties.choose_min(subset_ct);
    const std::size_t slot = rank[pick];
    const double finish = schedule.assign(tasks[p], machines[slot]);
    ready[slot] = finish;
    if (trace != nullptr) {
      KpbStep step;
      step.task = tasks[p];
      step.machine = machines[slot];
      step.completion = finish;
      step.subset.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        step.subset.push_back(machines[rank[i]]);
      }
      std::sort(step.subset.begin(), step.subset.end());
      trace->push_back(std::move(step));
    }
  }
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
