#include "differential.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "core/iterative.hpp"
#include "etc/cvb_generator.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "rng/rng.hpp"
#include "sched/etc_view.hpp"

namespace hcsched::heuristics::fastpath {

namespace {

using sched::Problem;
using sched::Schedule;

const char* policy_name(rng::TiePolicy policy) noexcept {
  switch (policy) {
    case rng::TiePolicy::kDeterministic:
      return "det";
    case rng::TiePolicy::kRandom:
      return "random";
    case rng::TiePolicy::kScripted:
      return "scripted";
  }
  return "?";
}

/// Subset of the matrix's tasks/machines plus nonzero ready times, derived
/// deterministically from `rng` (roughly 3/4 of the tasks, 2/3 of the
/// machines, never empty).
Problem derive_subset(const etc::EtcMatrix& matrix, double mean_ready,
                      bool integer_ready, rng::Rng& rng) {
  std::vector<sched::TaskId> tasks;
  for (std::size_t t = 0; t < matrix.num_tasks(); ++t) {
    if (!rng.chance(0.25)) tasks.push_back(static_cast<sched::TaskId>(t));
  }
  if (tasks.empty()) tasks.push_back(0);
  std::vector<sched::MachineId> machines;
  for (std::size_t m = 0; m < matrix.num_machines(); ++m) {
    if (!rng.chance(1.0 / 3.0)) {
      machines.push_back(static_cast<sched::MachineId>(m));
    }
  }
  if (machines.empty()) machines.push_back(0);
  std::vector<double> ready;
  ready.reserve(machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const double r = rng.uniform(0.0, mean_ready);
    ready.push_back(integer_ready ? std::round(r) : r);
  }
  return Problem(matrix, std::move(tasks), std::move(machines),
                 std::move(ready));
}

/// First divergence between two schedules, or "" when identical. Compares
/// the assignment sequences exactly (order, ids and IEEE doubles) and the
/// by-slot completion-time vectors.
std::string first_divergence(const Schedule& ref, const Schedule& fast) {
  std::ostringstream out;
  const auto& ref_order = ref.assignment_order();
  const auto& fast_order = fast.assignment_order();
  if (ref_order.size() != fast_order.size()) {
    out << "assignment counts differ: reference " << ref_order.size()
        << " vs fastpath " << fast_order.size();
    return out.str();
  }
  for (std::size_t i = 0; i < ref_order.size(); ++i) {
    if (!(ref_order[i] == fast_order[i])) {
      out << "assignment " << i << " differs: reference task "
          << ref_order[i].task << "->m" << ref_order[i].machine << " ["
          << ref_order[i].start << ", " << ref_order[i].finish
          << ") vs fastpath task " << fast_order[i].task << "->m"
          << fast_order[i].machine << " [" << fast_order[i].start << ", "
          << fast_order[i].finish << ")";
      return out.str();
    }
  }
  const auto& ref_ct = ref.completion_times_by_slot();
  const auto& fast_ct = fast.completion_times_by_slot();
  for (std::size_t slot = 0; slot < ref_ct.size(); ++slot) {
    if (ref_ct[slot] != fast_ct[slot]) {
      out << "completion time of slot " << slot << " differs: reference "
          << ref_ct[slot] << " vs fastpath " << fast_ct[slot];
      return out.str();
    }
  }
  return {};
}

/// Full run_iterative equivalence: iteration counts, every iteration's
/// mapping and makespan machine across cut points, and the final
/// finishing-time table. Returns "" when identical.
std::string iterative_divergence(const core::IterativeResult& ref,
                                 const core::IterativeResult& fast) {
  std::ostringstream out;
  if (ref.iterations.size() != fast.iterations.size()) {
    out << "iteration counts differ: reference " << ref.iterations.size()
        << " vs fastpath " << fast.iterations.size();
    return out.str();
  }
  for (std::size_t i = 0; i < ref.iterations.size(); ++i) {
    const core::IterationRecord& r = ref.iterations[i];
    const core::IterationRecord& f = fast.iterations[i];
    const std::string diff = first_divergence(r.schedule, f.schedule);
    if (!diff.empty()) {
      out << "iteration " << i << ": " << diff;
      return out.str();
    }
    if (r.makespan != f.makespan ||
        r.makespan_machine != f.makespan_machine) {
      out << "iteration " << i << " cut point differs: reference m"
          << r.makespan_machine << " @ " << r.makespan << " vs fastpath m"
          << f.makespan_machine << " @ " << f.makespan;
      return out.str();
    }
  }
  if (ref.final_finishing_times != fast.final_finishing_times) {
    out << "final finishing-time tables differ";
    return out.str();
  }
  return {};
}

}  // namespace

DifferentialOutcome run_differential_case(const DifferentialCase& c) {
  rng::Rng rng(c.seed);
  etc::CvbParams params;
  params.num_tasks = c.tasks;
  params.num_machines = c.machines;
  params.mean_task_time = c.mean_task_time;
  params.v_task = c.v_task;
  params.v_machine = c.v_machine;
  etc::EtcMatrix matrix = etc::shape_consistency(
      etc::CvbEtcGenerator(params).generate(rng), c.consistency);
  if (c.integer_cells) {
    // Rounding is monotone, so it keeps the consistency class.
    for (std::size_t t = 0; t < c.tasks; ++t) {
      for (std::size_t m = 0; m < c.machines; ++m) {
        double& cell = matrix.at(static_cast<sched::TaskId>(t),
                                 static_cast<sched::MachineId>(m));
        cell = std::max(1.0, std::round(cell));
        if (c.near_tie_offsets) {
          cell += 0.6e-9 * static_cast<double>(rng.below(3));
        }
      }
    }
  }
  const Problem problem =
      c.subset ? derive_subset(matrix, c.mean_task_time, c.integer_cells, rng)
               : Problem::full(matrix);

  // Identically-seeded tie state per path: the comparison is meaningful
  // only if both paths face the exact same random stream / script.
  const std::uint64_t tie_seed = rng.next_u64();
  rng::Rng ref_rng(tie_seed);
  rng::Rng fast_rng(tie_seed);
  std::vector<std::size_t> script;
  if (c.policy == rng::TiePolicy::kScripted) {
    script.reserve(c.tasks * 4);
    for (std::size_t i = 0; i < c.tasks * 4; ++i) {
      script.push_back(static_cast<std::size_t>(rng.below(6)));
    }
  }
  auto make_ties = [&](rng::Rng& tie_rng) {
    switch (c.policy) {
      case rng::TiePolicy::kRandom:
        return rng::TieBreaker(tie_rng);
      case rng::TiePolicy::kScripted:
        return rng::TieBreaker(script);
      case rng::TiePolicy::kDeterministic:
        break;
    }
    return rng::TieBreaker();
  };
  rng::TieBreaker ref_ties = make_ties(ref_rng);
  rng::TieBreaker fast_ties = make_ties(fast_rng);

  const KernelInfo& info = *find_kernel(c.kernel);
  DifferentialOutcome outcome;
  if (c.iterative) {
    // Whole-minimizer comparison: the heuristic dispatches internally, so
    // the two paths are selected by scoped mode (which also controls
    // whether the minimizer installs the incremental removal context).
    const auto heuristic = make_heuristic(info.name);
    const core::IterativeMinimizer minimizer;
    core::IterativeResult ref;
    core::IterativeResult fast;
    {
      const ScopedMode off(false);
      ref = minimizer.run(*heuristic, problem, ref_ties);
    }
    {
      const ScopedMode on(true);
      fast = minimizer.run(*heuristic, problem, fast_ties);
    }
    outcome.divergence = iterative_divergence(ref, fast);
  } else {
#if HCSCHED_TRACE
    const auto before_ref = obs::counters::snapshot();
#endif
    const Schedule ref = info.reference(problem, ref_ties);
#if HCSCHED_TRACE
    const auto before_fast = obs::counters::snapshot();
#endif
    const Schedule fast = info.fast(problem, fast_ties);
    outcome.divergence = first_divergence(ref, fast);
#if HCSCHED_TRACE
    const auto after = obs::counters::snapshot();
    const auto ref_delta = before_fast.delta_since(before_ref);
    const auto fast_delta = after.delta_since(before_fast);
    outcome.reference_cell_evals = ref_delta[obs::Counter::kEtcCellEvaluations];
    outcome.fastpath_cell_evals = fast_delta[obs::Counter::kEtcCellEvaluations];
    // The counters must agree as well as the TieBreakers' own tallies: a
    // kernel that accounts decisions in bulk must charge them to the
    // counter too.
    for (const auto& [counter, label] :
         {std::pair{obs::Counter::kTieDecisions, "decision"},
          std::pair{obs::Counter::kTieEvents, "tie-event"}}) {
      if (outcome.divergence.empty() &&
          ref_delta[counter] != fast_delta[counter]) {
        std::ostringstream out;
        out << "TieBreaker " << label << " counter deltas differ: reference "
            << ref_delta[counter] << " vs fastpath " << fast_delta[counter];
        outcome.divergence = out.str();
      }
    }
#endif
  }

  if (outcome.divergence.empty() &&
      ref_ties.decisions() != fast_ties.decisions()) {
    std::ostringstream out;
    out << "TieBreaker decision counts differ: reference "
        << ref_ties.decisions() << " vs fastpath " << fast_ties.decisions();
    outcome.divergence = out.str();
  }
  if (outcome.divergence.empty() &&
      ref_ties.tie_events() != fast_ties.tie_events()) {
    std::ostringstream out;
    out << "TieBreaker tie-event counts differ: reference "
        << ref_ties.tie_events() << " vs fastpath "
        << fast_ties.tie_events();
    outcome.divergence = out.str();
  }
  outcome.equivalent = outcome.divergence.empty();
  return outcome;
}

std::string cell_source_divergence(std::uint64_t seed) {
  rng::Rng rng(seed ^ 0x5bd1e9955bd1e995ull);
  const std::size_t n = 1 + static_cast<std::size_t>(rng.below(40));
  const std::size_t m = 1 + static_cast<std::size_t>(rng.below(12));
  // Continuous cells (and some exact zeros): a read of the wrong cell shows
  // up as a different value.
  std::vector<double> values(n * m);
  for (double& v : values) {
    v = rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 1000.0);
  }
  const etc::EtcMatrix matrix =
      etc::EtcMatrix::from_values(n, m, std::move(values));
  // A shuffled subset, so slot s holds some machine other than s.
  std::vector<sched::TaskId> tasks;
  for (std::size_t t = 0; t < n; ++t) {
    if (!rng.chance(0.25)) tasks.push_back(static_cast<sched::TaskId>(t));
  }
  std::vector<sched::MachineId> machines;
  for (std::size_t k = 0; k < m; ++k) {
    if (!rng.chance(0.25)) {
      machines.push_back(static_cast<sched::MachineId>(k));
    }
  }
  if (machines.empty()) {
    machines.push_back(static_cast<sched::MachineId>(m - 1));
  }
  rng.shuffle(std::span<sched::TaskId>(tasks));
  rng.shuffle(std::span<sched::MachineId>(machines));
  Problem problem(matrix, std::move(tasks), std::move(machines));

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t step = 0;; ++step) {
    const sched::EtcView view(problem);
    for (std::size_t p = 0; p < problem.num_tasks(); ++p) {
      const sched::TaskId task = problem.tasks()[p];
      const auto row = view.row(p);
      for (std::size_t slot = 0; slot < problem.num_machines(); ++slot) {
        const double want = matrix.at(task, problem.machines()[slot]);
        const double got = problem.etc_at(task, slot);
        if (bits(got) != bits(want) || bits(row[slot]) != bits(want)) {
          std::ostringstream out;
          out << "cell-source seed=" << seed << " step=" << step
              << " task=" << task << " slot=" << slot << ": matrix.at "
              << want << ", etc_at " << got << ", EtcView " << row[slot];
          return out.str();
        }
      }
    }
    if (problem.num_machines() == 1) return "";
    // Remove a random slot and a random subset of task rows (possibly none,
    // as when the removed machine held no task).
    const std::size_t slot =
        static_cast<std::size_t>(rng.below(problem.num_machines()));
    std::vector<std::size_t> rows;
    for (std::size_t p = 0; p < problem.num_tasks(); ++p) {
      if (rng.below(problem.num_machines()) == 0) rows.push_back(p);
    }
    problem.remove_machine(slot, rows);
  }
}

std::string describe(const DifferentialCase& c) {
  std::ostringstream out;
  out << "seed=" << c.seed << " t=" << c.tasks << " m=" << c.machines
      << " consistency=" << etc::to_string(c.consistency)
      << " policy=" << policy_name(c.policy)
      << " heuristic=" << find_kernel(c.kernel)->name
      << (c.integer_cells ? " integer" : "")
      << (c.near_tie_offsets ? " near-tie" : "") << (c.subset ? " subset" : "")
      << (c.iterative ? " iterative" : "");
  return out.str();
}

}  // namespace hcsched::heuristics::fastpath
