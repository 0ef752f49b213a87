// Monte-Carlo study of the iterative technique (extension experiments
// EXT-1/EXT-2 in DESIGN.md).
//
// For each trial a fresh CVB ETC matrix is generated, each heuristic maps
// it, the iterative technique runs, and the per-machine finishing times of
// the original mapping are compared against the final finishing times. Rows
// aggregate, per heuristic: how many non-makespan machines improved /
// stayed / worsened, the mean relative improvement of machine finishing
// times, and how often the effective makespan increased.
//
// Trials are independent; they are distributed over a ThreadPool with one
// RNG stream per trial (derived by jumping), and every trial's contribution
// is captured as a TrialRecord before a *sequential, trial-ordered* fold
// produces the study rows — so results are bit-identical regardless of
// thread count, of which trials were replayed from a checkpoint, and of
// which trials were quarantined by injected faults (the surviving trials'
// statistics equal a clean run restricted to the same trial set).
//
// Robustness layer (docs/ROBUSTNESS.md):
//   * a trial that throws (fault::FaultInjected or any std::exception) is
//     *quarantined* — captured into the report with its site, seed, trial
//     and heuristic — instead of aborting the study;
//   * a StudyHooks::cancel token stops the study between trials (and, via
//     the thread-pool's ScopedCancel install, inside the anytime
//     heuristics); completed trials are kept and the report is flagged;
//   * StudyHooks::checkpoint streams each completed trial to a JSONL file;
//     StudyHooks::resume replays previously completed trials by
//     (point, seed, trial) key without recomputation.
#pragma once

#include <string>
#include <vector>

#include "core/bound.hpp"
#include "core/cancel.hpp"
#include "etc/consistency.hpp"
#include "etc/cvb_generator.hpp"
#include "rng/tie_break.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"

namespace hcsched::sim {

class CheckpointWriter;
struct CheckpointData;

struct StudyParams {
  std::vector<std::string> heuristics{};  ///< registry names
  etc::CvbParams cvb{};
  etc::Consistency consistency = etc::Consistency::kInconsistent;
  std::size_t trials = 50;
  std::uint64_t seed = 1;
  rng::TiePolicy tie_policy = rng::TiePolicy::kDeterministic;
  /// Forward the previous mapping as a seed (Genitor's protocol).
  bool use_seeding = true;
  /// Optimality-gap columns (EXT-11): each trial computes one gap reference
  /// for its instance — the exact BnB optimum when proven within
  /// `gap_options`, the preemptive-relaxation lower bound otherwise — and
  /// every heuristic's original-mapping makespan is reported as the
  /// fractional gap (makespan - ref) / ref.
  bool gap = false;
  core::GapOptions gap_options{};
};

struct StudyRow {
  std::string heuristic{};
  std::size_t trials = 0;
  /// Machine-level counts across all trials (non-makespan machines of the
  /// original mapping only; the original makespan machine's finishing time
  /// is frozen by construction).
  std::size_t machines_improved = 0;
  std::size_t machines_unchanged = 0;
  std::size_t machines_worsened = 0;
  /// Relative change of machine finishing times, (final - orig) / orig,
  /// over non-makespan machines (negative = improvement).
  RunningStats finish_delta{};
  /// Relative change of the mean machine completion time per trial.
  RunningStats mean_completion_delta{};
  /// Number of trials whose effective makespan exceeded the original.
  std::size_t makespan_increases = 0;
  /// Original-mapping makespan (context for the ratios).
  RunningStats original_makespan{};
  /// Fractional optimality gap of the original mapping vs the per-trial
  /// reference. Empty unless StudyParams::gap was set.
  RunningStats gap_pct{};
  /// Trials whose gap reference was a proven optimum (vs the bound).
  std::size_t gap_exact_trials = 0;
};

/// One (trial, heuristic) contribution to the study rows: everything the
/// fold needs, in fold order, so a record replayed from a checkpoint
/// reproduces the exact same floating-point accumulation as a live run.
struct TrialRecord {
  std::string heuristic{};
  std::size_t machines_improved = 0;
  std::size_t machines_unchanged = 0;
  std::size_t machines_worsened = 0;
  /// (final - orig) / orig per non-makespan machine with orig > 0, in
  /// machine order.
  std::vector<double> finish_deltas{};
  bool has_mean_completion_delta = false;
  double mean_completion_delta = 0.0;
  bool makespan_increased = false;
  double original_makespan = 0.0;
  /// Optimality gap of the original mapping (StudyParams::gap runs only).
  bool has_gap = false;
  double gap_pct = 0.0;
  bool gap_exact = false;
};

/// A failing (trial, heuristic) execution captured instead of aborting the
/// study. `heuristic` is empty when the trial failed before any heuristic
/// ran (e.g. an etc-generate fault quarantines the whole trial).
struct QuarantineRecord {
  std::size_t trial = 0;
  std::uint64_t study_seed = 0;  ///< seed of the study (trial gives the stream)
  std::string heuristic{};
  /// Fault site name for FaultInjected errors; "exception" otherwise.
  std::string site{};
  std::string error{};
};

/// Everything one trial produced. `completed == false` marks a trial the
/// study never ran (cancelled before start); it contributes nothing.
struct TrialOutcome {
  bool completed = false;
  std::vector<TrialRecord> records{};
  std::vector<QuarantineRecord> quarantined{};
};

struct StudyReport {
  std::vector<StudyRow> rows{};
  /// Quarantined executions in (trial, heuristic) order.
  std::vector<QuarantineRecord> quarantined{};
  /// Per-trial outcomes, indexed by trial (the fold's input; kept so tests
  /// and checkpoints can re-fold arbitrary trial subsets).
  std::vector<TrialOutcome> outcomes{};
  std::size_t trials_requested = 0;
  std::size_t trials_completed = 0;
  /// Trials replayed from StudyHooks::resume instead of recomputed.
  std::size_t trials_replayed = 0;
  /// True when a CancelToken stopped the study before every trial ran.
  bool cancelled = false;
};

/// Optional robustness hooks for a study run. All pointers are borrowed and
/// may be null; `point_label` namespaces checkpoint keys when several sweep
/// points share one file.
struct StudyHooks {
  const core::CancelToken* cancel = nullptr;
  CheckpointWriter* checkpoint = nullptr;
  const CheckpointData* resume = nullptr;
  std::string point_label{};
};

/// Deterministic, trial-ordered fold of per-trial outcomes into study rows.
/// Pure: same outcomes -> bit-identical rows, regardless of how (or when)
/// the outcomes were produced. Skipped trials (completed == false)
/// contribute nothing; quarantined records are collected, not aggregated.
StudyReport fold_outcomes(const StudyParams& params,
                          std::vector<TrialOutcome> outcomes);

/// Runs the study with the full robustness surface (quarantine,
/// cancellation, checkpoint/resume).
StudyReport run_iterative_study_report(const StudyParams& params,
                                       ThreadPool& pool,
                                       const StudyHooks& hooks = {});

/// Classic entry point: rows only, no hooks.
std::vector<StudyRow> run_iterative_study(const StudyParams& params,
                                          ThreadPool& pool);

}  // namespace hcsched::sim
