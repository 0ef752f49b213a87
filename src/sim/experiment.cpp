#include "sim/experiment.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/check.hpp"
#include "core/iterative.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "sched/metrics.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fault/fault.hpp"

namespace hcsched::sim {

namespace {

/// Fault key of one (trial, heuristic) execution: trials are striped by the
/// heuristic count so a rate-armed heuristic-map site can fail one
/// heuristic of a trial while the rest survive (docs/ROBUSTNESS.md pins
/// this layout; tests predict the injected set from it).
std::uint64_t heuristic_fault_key(std::size_t trial, std::size_t h,
                                  std::size_t heuristic_count) {
  return static_cast<std::uint64_t>(trial) * heuristic_count + h;
}

#if HCSCHED_TRACE
/// Root-trace seed of one trial's span tree: a pure function of
/// (study seed, trial), so resumed or re-run studies emit identical span
/// and trace IDs regardless of thread scheduling. The salt separates this
/// stream from every study RNG stream.
std::uint64_t trial_trace_seed(std::uint64_t study_seed, std::size_t trial) {
  rng::SplitMix64 mix(study_seed ^ 0x7370616e2d736565ULL);
  return mix.next() ^ (trial * 0x9e3779b97f4a7c15ULL);
}
#endif

/// Runs every heuristic of one trial, capturing failures as quarantine
/// records instead of throwing. Deterministic given (params, trial): the
/// trial RNG stream is derived by jumping, and each heuristic draws its
/// random ties from its own split of that stream, so a quarantined
/// heuristic cannot perturb the randomness — hence the records — of any
/// other heuristic in the same trial.
TrialOutcome run_one_trial(
    const StudyParams& params, std::size_t trial,
    const std::vector<std::unique_ptr<heuristics::Heuristic>>& instances,
    const etc::CvbEtcGenerator& generator,
    const core::IterativeMinimizer& minimizer) {
  TrialOutcome outcome;
  outcome.completed = true;
  const fault::ScopedKey trial_key(trial);
  // Every (trial, heuristic) execution — including quarantined ones, whose
  // stack unwinding closes the nested spans — lands under this
  // deterministic trace root.
  HCSCHED_SPAN_SEEDED(trial_span, "trial",
                      trial_trace_seed(params.seed, trial));
  HCSCHED_SPAN_ATTR(trial_span, "trial", obs::JsonValue(trial));
  HCSCHED_SPAN_ATTR(trial_span, "seed", obs::JsonValue(params.seed));

  // Independent, thread-count-agnostic stream per trial.
  rng::Rng trial_rng = rng::Rng(params.seed).split(trial);
  std::optional<etc::EtcMatrix> matrix;
  try {
    fault::maybe_inject(fault::Site::kEtcGenerate, trial);
    matrix = etc::shape_consistency(generator.generate(trial_rng),
                                    params.consistency);
  } catch (const fault::FaultInjected& fault) {
    // No matrix, no heuristic ran: the whole trial is quarantined once.
    outcome.quarantined.push_back(QuarantineRecord{
        trial, params.seed, std::string{},
        std::string(fault::to_string(fault.site())), fault.what()});
    HCSCHED_COUNT(obs::Counter::kTrialsQuarantined);
    HCSCHED_SPAN_ATTR(trial_span, "quarantined", obs::JsonValue(true));
    return outcome;
  }
  const sched::Problem problem = sched::Problem::full(*matrix);

  // One gap reference per trial, shared by every heuristic's row: the same
  // instance has the same optimum (or bound) no matter who maps it.
  std::optional<core::GapReference> gap_ref;
  if (params.gap) {
    gap_ref = core::gap_reference(problem, params.gap_options);
    HCSCHED_SPAN_ATTR(trial_span, "gap_reference",
                      obs::JsonValue(gap_ref->value));
    HCSCHED_SPAN_ATTR(trial_span, "gap_exact", obs::JsonValue(gap_ref->exact));
  }

  bool trial_quarantined = false;
  for (std::size_t h = 0; h < instances.size(); ++h) {
    const fault::ScopedKey heuristic_key(
        heuristic_fault_key(trial, h, instances.size()));
    // Per-heuristic tie stream (see above); derived after matrix generation
    // consumed trial_rng, so it is a fixed function of (seed, trial, h).
    rng::Rng tie_rng = trial_rng.split(h);
    try {
      core::IterativeResult result = [&] {
        if (params.tie_policy == rng::TiePolicy::kRandom) {
          rng::TieBreaker ties(tie_rng);
          return minimizer.run(*instances[h], problem, ties);
        }
        rng::TieBreaker ties;
        return minimizer.run(*instances[h], problem, ties);
      }();

      TrialRecord record;
      record.heuristic = params.heuristics[h];
      const auto& original = result.original().schedule;
      const sched::MachineId span_machine = result.original().makespan_machine;
      record.original_makespan = result.original().makespan;

      double orig_sum = 0.0;
      double final_sum = 0.0;
      for (const auto& [machine, final_ct] : result.final_finishing_times) {
        const double orig_ct = original.completion_time(machine);
        orig_sum += orig_ct;
        final_sum += final_ct;
        if (machine == span_machine) continue;  // frozen by definition
        const double delta = final_ct - orig_ct;
        if (delta < -1e-9) {
          ++record.machines_improved;
        } else if (delta > 1e-9) {
          ++record.machines_worsened;
        } else {
          ++record.machines_unchanged;
        }
        if (orig_ct > 0.0) record.finish_deltas.push_back(delta / orig_ct);
      }
      if (orig_sum > 0.0) {
        record.has_mean_completion_delta = true;
        record.mean_completion_delta = (final_sum - orig_sum) / orig_sum;
      }
      record.makespan_increased = result.makespan_increased();
      if (gap_ref.has_value()) {
        record.has_gap = true;
        record.gap_pct =
            core::gap_pct(result.original().makespan, *gap_ref);
        record.gap_exact = gap_ref->exact;
      }
      // Per-trial report: one event per (trial, heuristic) run with the
      // makespan transition and balance-index delta.
      HCSCHED_TRACE_EVENT(
          "study.trial",
          {{"heuristic", obs::JsonValue(record.heuristic)},
           {"trial", obs::JsonValue(trial)},
           {"original_makespan", obs::JsonValue(result.original().makespan)},
           {"final_makespan", obs::JsonValue(result.final_makespan())},
           {"makespan_increased", obs::JsonValue(result.makespan_increased())},
           {"original_balance_index",
            obs::JsonValue(sched::load_balance_index(original))},
           {"iterations", obs::JsonValue(result.iterations.size())}});
      outcome.records.push_back(std::move(record));
    } catch (const fault::FaultInjected& fault) {
      outcome.quarantined.push_back(QuarantineRecord{
          trial, params.seed, params.heuristics[h],
          std::string(fault::to_string(fault.site())), fault.what()});
      trial_quarantined = true;
      HCSCHED_TRACE_EVENT(
          "study.trial_quarantined",
          {{"heuristic", obs::JsonValue(params.heuristics[h])},
           {"trial", obs::JsonValue(trial)},
           {"site", obs::JsonValue(fault::to_string(fault.site()))}});
    } catch (const std::exception& error) {
      outcome.quarantined.push_back(QuarantineRecord{
          trial, params.seed, params.heuristics[h], "exception",
          error.what()});
      trial_quarantined = true;
      HCSCHED_TRACE_EVENT(
          "study.trial_quarantined",
          {{"heuristic", obs::JsonValue(params.heuristics[h])},
           {"trial", obs::JsonValue(trial)},
           {"site", obs::JsonValue("exception")}});
    }
  }
  if (trial_quarantined) {
    HCSCHED_COUNT(obs::Counter::kTrialsQuarantined);
    HCSCHED_SPAN_ATTR(trial_span, "quarantined", obs::JsonValue(true));
  }
  return outcome;
}

}  // namespace

StudyReport fold_outcomes(const StudyParams& params,
                          std::vector<TrialOutcome> outcomes) {
  StudyReport report;
  report.trials_requested = params.trials;
  report.rows.resize(params.heuristics.size());
  std::unordered_map<std::string_view, std::size_t> row_index;
  row_index.reserve(params.heuristics.size());
  for (std::size_t h = 0; h < params.heuristics.size(); ++h) {
    report.rows[h].heuristic = params.heuristics[h];
    row_index.emplace(params.heuristics[h], h);
  }

  // Sequential, trial-ordered accumulation: the floating-point fold order
  // is a pure function of the outcome set, independent of which thread
  // computed (or which checkpoint stored) each outcome.
  for (const TrialOutcome& outcome : outcomes) {
    if (!outcome.completed) continue;
    ++report.trials_completed;
    for (const TrialRecord& record : outcome.records) {
      const auto it = row_index.find(record.heuristic);
      if (it == row_index.end()) continue;  // checkpoint from a wider study
      StudyRow& row = report.rows[it->second];
      ++row.trials;
      row.machines_improved += record.machines_improved;
      row.machines_unchanged += record.machines_unchanged;
      row.machines_worsened += record.machines_worsened;
      for (const double delta : record.finish_deltas) {
        row.finish_delta.add(delta);
      }
      if (record.has_mean_completion_delta) {
        row.mean_completion_delta.add(record.mean_completion_delta);
      }
      if (record.makespan_increased) ++row.makespan_increases;
      row.original_makespan.add(record.original_makespan);
      if (record.has_gap) {
        row.gap_pct.add(record.gap_pct);
        if (record.gap_exact) ++row.gap_exact_trials;
      }
    }
    for (const QuarantineRecord& q : outcome.quarantined) {
      report.quarantined.push_back(q);
    }
  }
  report.outcomes = std::move(outcomes);
  return report;
}

StudyReport run_iterative_study_report(const StudyParams& params,
                                       ThreadPool& pool,
                                       const StudyHooks& hooks) {
  if (params.heuristics.empty()) {
    throw std::invalid_argument("run_iterative_study: no heuristics");
  }

  // Pin the two-phase greedy dispatch for the whole study (kAuto leaves the
  // process-wide mode untouched, e.g. a CLI --no-fastpath override).
  // Process-wide, but safe here: parallel_for_chunks blocks until every
  // worker drains, so the override cannot leak into unrelated concurrent
  // work.
  std::optional<heuristics::fastpath::ScopedMode> fastpath_scope;
  if (params.fastpath != heuristics::fastpath::Mode::kAuto) {
    fastpath_scope.emplace(params.fastpath);
  }

  // One slot per trial; chunks write disjoint indices, so no merge lock and
  // no completion-order dependence. Quarantine capture rides inside each
  // slot (run_one_trial appends to its own outcome), so the only shared
  // mutable state here is the replay tally: a pure counter whose value is
  // read after the parallel_for_chunks barrier — relaxed ordering suffices,
  // the barrier's join publishes it.
  std::vector<TrialOutcome> outcomes(params.trials);
  std::atomic<std::size_t> replayed{0};

  // The study's own (main-thread) span: covers scheduling, the barrier
  // wait, and the fold. Trial trees are separate deterministic roots — see
  // trial_trace_seed — because they run on worker-thread stacks.
  HCSCHED_SPAN_SEEDED(study_span, "study",
                      params.seed ^ 0x73747564792d3173ULL);
  HCSCHED_SPAN_ATTR(study_span, "trials", obs::JsonValue(params.trials));
  HCSCHED_SPAN_ATTR(study_span, "heuristics",
                    obs::JsonValue(params.heuristics.size()));
  if (!hooks.point_label.empty()) {
    HCSCHED_SPAN_ATTR(study_span, "point", obs::JsonValue(hooks.point_label));
  }

  pool.parallel_for_chunks(
      params.trials,
      [&](std::size_t begin, std::size_t end) {
        // Operation counters land in the global table when the scope exits.
        const obs::counters::CounterScope counter_scope;
        // Heuristic instances are stateless across trials (Genitor carries
        // only last-run stats), so construct once per chunk.
        std::vector<std::unique_ptr<heuristics::Heuristic>> instances;
        instances.reserve(params.heuristics.size());
        for (const auto& name : params.heuristics) {
          instances.push_back(heuristics::make_heuristic(name));
        }
        const etc::CvbEtcGenerator generator(params.cvb);
        const core::IterativeMinimizer minimizer{
            core::IterativeOptions{.use_seeding = params.use_seeding}};

        for (std::size_t trial = begin; trial < end; ++trial) {
          if (hooks.cancel != nullptr && hooks.cancel->cancelled()) break;
          if (hooks.resume != nullptr) {
            if (const TrialOutcome* stored = hooks.resume->find(
                    hooks.point_label, params.seed, trial)) {
              outcomes[trial] = *stored;
              replayed.fetch_add(1, std::memory_order_relaxed);
              HCSCHED_COUNT(obs::Counter::kCheckpointTrialsReplayed);
              continue;
            }
          }
          TrialOutcome outcome =
              run_one_trial(params, trial, instances, generator, minimizer);
          // A trial the budget interrupted mid-flight holds degraded
          // best-so-far mappings; discard it so completed trials — and the
          // checkpoint — only ever hold clean, reproducible results.
          if (hooks.cancel != nullptr && hooks.cancel->cancelled()) break;
          if (hooks.checkpoint != nullptr) {
            try {
              hooks.checkpoint->append_trial(
                  CheckpointKey{hooks.point_label, params.seed, trial},
                  outcome);
            } catch (const std::exception& error) {
              // A failed persist never fails the study: the trial stays in
              // the in-memory report and a later resume recomputes it.
              HCSCHED_TRACE_EVENT(
                  "checkpoint.write_failed",
                  {{"trial", obs::JsonValue(trial)},
                   {"error", obs::JsonValue(error.what())}});
            }
          }
          outcomes[trial] = std::move(outcome);
        }
      },
      hooks.cancel);

  StudyReport report = fold_outcomes(params, std::move(outcomes));
  report.trials_replayed = replayed.load(std::memory_order_relaxed);
  if (hooks.cancel != nullptr && hooks.cancel->cancelled() &&
      report.trials_completed < report.trials_requested) {
    report.cancelled = true;
    HCSCHED_COUNT(obs::Counter::kStudiesCancelled);
    HCSCHED_TRACE_EVENT(
        "study.cancelled",
        {{"trials_completed", obs::JsonValue(report.trials_completed)},
         {"trials_requested", obs::JsonValue(report.trials_requested)}});
  }
  HCSCHED_INVARIANT(report.rows.size() == params.heuristics.size(),
                    "study folded ", report.rows.size(),
                    " heuristic rows, expected ", params.heuristics.size());
  return report;
}

std::vector<StudyRow> run_iterative_study(const StudyParams& params,
                                          ThreadPool& pool) {
  return run_iterative_study_report(params, pool).rows;
}

}  // namespace hcsched::sim
