// The Switching Algorithm kernel (see fastpath.hpp for the switch surface
// and docs/FASTPATH.md for the full equivalence argument).
//
// The reference recomputes min(ready) and max(ready) with full scans before
// every task to form the balance index. One mapping moves exactly one ready
// time, and never downward, so the kernel maintains both bounds
// incrementally: the maximum absorbs each new finish time directly, and the
// minimum is rescanned (minscan.hpp) only when the loaded slot
// was holding it. MET rounds score tasks straight off the contiguous
// EtcView row — zero-copy, since the row is a verbatim cell copy and
// choose_min only reads — while MCT rounds fill one reused score buffer
// with the identical ready+ETC arithmetic. Either way choose_min sees
// element-for-element the vector the reference builds, preserving
// decision/tie-event counts and RNG/script consumption.
#include <algorithm>
#include <optional>
#include <span>

#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/minscan.hpp"
#include "heuristics/fastpath/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"
#include "sched/etc_view.hpp"

namespace hcsched::heuristics::fastpath {

Schedule swa_fast(const Problem& problem, TieBreaker& ties, double low,
                  double high, std::vector<SwaStep>* trace) {
  Schedule schedule(problem);
  const std::size_t n = problem.num_tasks();
  const std::size_t m = problem.num_machines();
  if (n == 0) return schedule;
  HCSCHED_PRECONDITION(m > 0, "swa_fast: problem with ", n,
                       " tasks but no machines");

  HCSCHED_SPAN(kernel_span, "fastpath.swa");
  HCSCHED_SPAN_ATTR(kernel_span, "tasks", obs::JsonValue(n));
  HCSCHED_SPAN_ATTR(kernel_span, "machines", obs::JsonValue(m));

  Workspace& ws = thread_workspace();
  const sched::EtcView view(problem);

  ws.doubles.reset(2 * m);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> scores = ws.doubles.take(m);
  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());

  double lo = minscan::min_value(ready.data(), m);
  double hi = minscan::max_value(ready.data(), m);

  const std::vector<TaskId>& tasks = problem.tasks();
  const std::vector<MachineId>& machines = problem.machines();
  SwaMode mode = SwaMode::kMct;  // Figure 13 step 2: first task uses MCT.
  bool first = true;
  for (std::size_t p = 0; p < n; ++p) {
    const std::span<const double> row = view.row(p);
    std::optional<double> bi;
    if (!first) {
      // All-zero ready times only occur before any mapping; ETCs are
      // positive, so hi > 0 here. Guard anyway (zero-ETC degenerate input).
      bi = hi > 0.0 ? lo / hi : 0.0;
      if (*bi > high) {
        mode = SwaMode::kMet;
      } else if (*bi < low) {
        mode = SwaMode::kMct;
      }
    }
    std::size_t slot;
    if (mode == SwaMode::kMct) {
      for (std::size_t s = 0; s < m; ++s) scores[s] = ready[s] + row[s];
      HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, m);
      slot = ties.choose_min(scores);
    } else {
      slot = ties.choose_min(row);
    }
    const double old_ready = ready[slot];
    const double finish = schedule.assign(tasks[p], machines[slot]);
    ready[slot] = finish;
    hi = std::max(hi, finish);
    // Only the loaded slot moved, and only upward: the minimum survives
    // unless that slot was (an) attainer of it.
    if (old_ready == lo) lo = minscan::min_value(ready.data(), m);
    if (trace != nullptr) {
      trace->push_back(SwaStep{tasks[p], machines[slot], finish, bi, mode});
    }
    first = false;
  }
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
