// The three Monte-Carlo study workloads: paper-grid, greedy-large and
// many-trials. Each loads a different layer heavily (README.md gives the
// shares); the end-to-end pass calls the library's study entry points and
// the traced pass re-runs every trial through the benchmark's own timed loop.
#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unistd.h>

#include "core/iterative.hpp"
#include "etc/consistency.hpp"
#include "etc/cvb_generator.hpp"
#include "heuristics/registry.hpp"
#include "obs/json.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"
#include "workload.hpp"

namespace hcsched::bench::pipeline {

namespace {

namespace fs = std::filesystem;

struct StudySpec {
  std::vector<std::string> heuristics{};
  std::size_t tasks = 0;
  std::size_t machines = 0;
  std::size_t trials = 0;
  rng::TiePolicy ties = rng::TiePolicy::kDeterministic;
  bool sweep = false;       ///< all 12 standard_sweep() cells
  bool checkpoint = false;  ///< write a checkpoint, then load it and resume
};

// Sizes give one pass of roughly 0.3-0.9 s on two workers, so a 30 s run
// holds 30-100 passes and their median is steady; smoke sizes are about 1/50
// of that work.
StudySpec spec_for(std::string_view name, bool smoke) {
  if (name == "paper-grid") {
    // The paper's own study. Genitor is nearly all of the work; the
    // fastpath kernels do almost nothing here.
    return {{"MET", "MCT", "Min-Min", "Genitor", "SWA", "Sufferage", "KPB"},
            24, 6, smoke ? 1U : 6U, rng::TiePolicy::kDeterministic,
            true, false};
  }
  if (name == "greedy-large") {
    // Large inconsistent instances: the two-phase fastpath kernel is nearly
    // all of the work; Genitor, checkpoints and per-trial splits are idle.
    // Two trials, one per worker of a two-worker pool, keep a pass under a
    // second.
    return {{"Min-Min", "Max-Min", "Duplex", "Sufferage"},
            smoke ? 128U : 512U, smoke ? 16U : 64U, 2U,
            rng::TiePolicy::kDeterministic, false, false};
  }
  if (name == "many-trials") {
    // Per-trial overhead on tiny maps: Rng(seed).split(trial) makes trial+1
    // jumps, so late trials cost more than their heuristics, and static
    // chunks leave the last worker the most work. The checkpoint is
    // written, loaded and replayed.
    return {{"MET", "MCT", "Min-Min", "SWA", "Sufferage", "KPB"},
            24, 6, smoke ? 40U : 1000U, rng::TiePolicy::kRandom,
            false, true};
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

bool is_theorem_heuristic(std::string_view name) {
  return name == "MET" || name == "MCT" || name == "Min-Min";
}

void add_stats(std::string& text, const sim::RunningStats& stats) {
  text += std::to_string(stats.count());
  for (const double v : {stats.mean(), stats.variance(), stats.min(),
                         stats.max()}) {
    text += ',';
    text += obs::json_number(v);
  }
  text += ';';
}

/// Every field of the study rows, doubles in round-trip form: equal texts
/// mean bit-equal rows.
std::string rows_text(const std::vector<sim::StudyRow>& rows) {
  std::string text;
  for (const sim::StudyRow& row : rows) {
    text += row.heuristic + ';' + std::to_string(row.trials) + ';' +
            std::to_string(row.machines_improved) + ';' +
            std::to_string(row.machines_unchanged) + ';' +
            std::to_string(row.machines_worsened) + ';' +
            std::to_string(row.makespan_increases) + ';';
    add_stats(text, row.finish_delta);
    add_stats(text, row.mean_completion_delta);
    add_stats(text, row.original_makespan);
    text += '\n';
  }
  return text;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool records_equal(const sim::TrialRecord& a, const sim::TrialRecord& b) {
  if (a.heuristic != b.heuristic ||
      a.machines_improved != b.machines_improved ||
      a.machines_unchanged != b.machines_unchanged ||
      a.machines_worsened != b.machines_worsened ||
      a.finish_deltas.size() != b.finish_deltas.size() ||
      a.has_mean_completion_delta != b.has_mean_completion_delta ||
      a.makespan_increased != b.makespan_increased ||
      a.has_gap != b.has_gap || a.gap_exact != b.gap_exact) {
    return false;
  }
  for (std::size_t i = 0; i < a.finish_deltas.size(); ++i) {
    if (!same_bits(a.finish_deltas[i], b.finish_deltas[i])) return false;
  }
  return same_bits(a.mean_completion_delta, b.mean_completion_delta) &&
         same_bits(a.original_makespan, b.original_makespan) &&
         same_bits(a.gap_pct, b.gap_pct);
}

/// The study's per-(trial, heuristic) record, computed from one iterative
/// result exactly as sim::run_iterative_study_report does.
sim::TrialRecord make_record(const std::string& heuristic,
                             const core::IterativeResult& result) {
  sim::TrialRecord record;
  record.heuristic = heuristic;
  const sched::Schedule& original = result.original().schedule;
  const sched::MachineId span_machine = result.original().makespan_machine;
  record.original_makespan = result.original().makespan;
  double orig_sum = 0.0;
  double final_sum = 0.0;
  for (const auto& [machine, final_ct] : result.final_finishing_times) {
    const double orig_ct = original.completion_time(machine);
    orig_sum += orig_ct;
    final_sum += final_ct;
    if (machine == span_machine) continue;
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
  return record;
}

/// One trial of the traced pass: the library's trial, step for step, with a
/// timer around each layer's call.
sim::TrialOutcome traced_trial(
    const sim::StudyParams& params, std::size_t trial,
    const std::vector<std::unique_ptr<TimedHeuristic>>& instances,
    const etc::CvbEtcGenerator& generator,
    const core::IterativeMinimizer& minimizer, LayerClock& clock) {
  sim::TrialOutcome outcome;
  outcome.completed = true;
  rng::Rng trial_rng = timed(clock.split_ns, [&] {
    return rng::Rng(params.seed).split(trial);
  });
  const etc::EtcMatrix matrix = timed(clock.etc_ns, [&] {
    return etc::shape_consistency(generator.generate(trial_rng),
                                  params.consistency);
  });
  const sched::Problem problem =
      timed(clock.etc_ns, [&] { return sched::Problem::full(matrix); });
  ++clock.instances;
  clock.cells += matrix.num_tasks() * matrix.num_machines();

  for (std::size_t h = 0; h < instances.size(); ++h) {
    rng::Rng tie_rng =
        timed(clock.split_ns, [&] { return trial_rng.split(h); });
    rng::TieBreaker ties = params.tie_policy == rng::TiePolicy::kRandom
                               ? rng::TieBreaker(tie_rng)
                               : rng::TieBreaker();
    const std::uint64_t start = now_ns();
    const core::IterativeResult result =
        minimizer.run(*instances[h], problem, ties);
    const std::uint64_t ns = now_ns() - start;
    clock.run_ns += ns;
    clock.run_samples_ns.push_back(ns);
    clock.tie_decisions += ties.decisions();
    clock.tie_events += ties.tie_events();
    outcome.records.push_back(make_record(params.heuristics[h], result));
  }
  return outcome;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

class StudyWorkload final : public Workload {
 public:
  StudyWorkload(StudySpec spec, std::uint64_t seed, std::string checkpoint)
      : spec_(std::move(spec)),
        seed_(seed),
        checkpoint_path_(std::move(checkpoint)) {}

  void setup() override {
    pool_ = std::make_unique<sim::ThreadPool>(study_threads());
    points_ = spec_.sweep ? sim::standard_sweep()
                          : std::vector<sim::SweepPoint>{sim::SweepPoint{}};
    for (const std::string& name : spec_.heuristics) {
      (void)heuristics::make_heuristic(name);  // throws on an unknown name
    }
    if (spec_.checkpoint) {
      fs::create_directories(fs::path(checkpoint_path_).parent_path());
    }
  }

  void teardown() override {
    pool_.reset();
    points_.clear();
  }

  PassOutput run_pass() override {
    PassOutput out;
    if (spec_.checkpoint) fs::remove(checkpoint_path_);
    std::vector<sim::StudyReport> reports;
    sim::StudyReport resumed;
    const sim::StudyParams params = params_for(points_.front());
    const std::uint64_t start = now_ns();
    if (spec_.sweep) {
      std::vector<sim::SweepReportResult> cells =
          sim::run_sweep_report(params, points_, *pool_);
      for (sim::SweepReportResult& cell : cells) {
        reports.push_back(std::move(cell.report));
      }
    } else if (spec_.checkpoint) {
      {
        sim::CheckpointWriter writer(checkpoint_path_);
        reports.push_back(sim::run_iterative_study_report(
            params, *pool_, {.checkpoint = &writer}));
      }
      const std::uint64_t resume_start = now_ns();
      const sim::CheckpointData data = sim::load_checkpoint(checkpoint_path_);
      resumed = sim::run_iterative_study_report(params, *pool_,
                                                {.resume = &data});
      out.resume_seconds = seconds_since(resume_start);
    } else {
      reports.push_back(sim::run_iterative_study_report(params, *pool_));
    }
    out.seconds = seconds_since(start);

    check_reports(reports, out);
    if (spec_.checkpoint) {
      const std::size_t lines = count_lines(checkpoint_path_);
      out.checks.push_back({"checkpoint has one line per trial",
                            lines == spec_.trials,
                            std::to_string(lines) + " lines"});
      out.checks.push_back(
          {"resumed rows equal the rows that wrote the checkpoint",
           rows_text(resumed.rows) == rows_text(reports.front().rows), ""});
      out.checks.push_back({"resume replays every trial",
                            resumed.trials_replayed == spec_.trials,
                            std::to_string(resumed.trials_replayed) +
                                " replayed"});
      fs::remove(checkpoint_path_);
    }
    out.runs = points_.size() * spec_.trials * spec_.heuristics.size();
    Digest digest;
    for (const sim::StudyReport& report : reports) {
      digest.add(rows_text(report.rows));
    }
    out.digest = digest.value();
    reference_ = std::move(reports);
    return out;
  }

  TracedOutput run_traced() override {
    TracedOutput out;
    const std::uint64_t start = now_ns();
    std::size_t compared = 0;
    std::size_t mismatched = 0;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const sim::StudyParams params = params_for(points_[p]);
      const sim::StudyReport report = traced_point(params, out);
      const sim::StudyReport& reference = reference_.at(p);
      for (std::size_t t = 0; t < params.trials; ++t) {
        const sim::TrialOutcome& want = reference.outcomes.at(t);
        const sim::TrialOutcome& got = report.outcomes.at(t);
        // Under fault injection the end-to-end pass quarantined some
        // executions; only the records it completed are compared.
        if (want.quarantined.empty() &&
            want.records.size() != got.records.size()) {
          ++mismatched;
        }
        for (const sim::TrialRecord& record : want.records) {
          ++compared;
          const auto match = std::find_if(
              got.records.begin(), got.records.end(),
              [&](const sim::TrialRecord& r) {
                return r.heuristic == record.heuristic;
              });
          if (match == got.records.end() || !records_equal(record, *match)) {
            ++mismatched;
          }
        }
      }
    }
    out.checks.push_back({"traced records equal the end-to-end outcomes",
                          compared > 0 && mismatched == 0,
                          std::to_string(compared) + " compared, " +
                              std::to_string(mismatched) + " differ"});
    out.wall_ns = now_ns() - start;
    return out;
  }

  std::size_t threads() const override { return study_threads(); }

 private:
  sim::StudyParams params_for(const sim::SweepPoint& point) const {
    sim::StudyParams params;
    params.heuristics = spec_.heuristics;
    params.cvb.num_tasks = spec_.tasks;
    params.cvb.num_machines = spec_.machines;
    params.cvb.v_task = point.v_task;
    params.cvb.v_machine = point.v_machine;
    params.consistency = point.consistency;
    params.trials = spec_.trials;
    params.seed = seed_;
    params.tie_policy = spec_.ties;
    return params;
  }

  void check_reports(const std::vector<sim::StudyReport>& reports,
                     PassOutput& out) const {
    bool complete = true;
    std::string theorem_violation;
    std::string genitor_violation;
    for (std::size_t p = 0; p < reports.size(); ++p) {
      const sim::StudyReport& report = reports[p];
      complete = complete && !report.cancelled &&
                 report.trials_completed == spec_.trials;
      out.quarantined += report.quarantined.size();
      for (const sim::StudyRow& row : report.rows) {
        const std::string where = points_[p].label + " " + row.heuristic;
        if (is_theorem_heuristic(row.heuristic) &&
            (row.machines_improved != 0 || row.machines_worsened != 0) &&
            theorem_violation.empty()) {
          theorem_violation = where + " moved a finishing time";
        }
        if (row.heuristic == "Genitor" && row.makespan_increases != 0 &&
            genitor_violation.empty()) {
          genitor_violation = where + " increased the makespan";
        }
      }
    }
    out.checks.push_back({"every study completed every trial", complete, ""});
    out.checks.push_back({"MET, MCT and Min-Min rows never move a finishing "
                          "time",
                          theorem_violation.empty(), theorem_violation});
    out.checks.push_back({"Genitor never increases the makespan",
                          genitor_violation.empty(), genitor_violation});
  }

  /// One sweep point through the timed loop, on the workload's pool.
  sim::StudyReport traced_point(const sim::StudyParams& params,
                                TracedOutput& out) const {
    const std::string traced_path = checkpoint_path_ + ".traced";
    std::vector<sim::TrialOutcome> outcomes(params.trials);
    std::optional<sim::CheckpointWriter> writer;
    if (spec_.checkpoint) {
      fs::remove(traced_path);
      writer.emplace(traced_path);
    }
    std::mutex merge_mutex;
    std::vector<std::uint64_t> chunk_busy_ns;
    pool_->parallel_for_chunks(
        params.trials, [&](std::size_t begin, std::size_t end) {
          LayerClock clock;
          const std::uint64_t chunk_start = now_ns();
          std::vector<std::unique_ptr<TimedHeuristic>> instances;
          for (const std::string& name : params.heuristics) {
            instances.push_back(std::make_unique<TimedHeuristic>(
                heuristics::make_heuristic(name), clock));
          }
          const etc::CvbEtcGenerator generator(params.cvb);
          const core::IterativeMinimizer minimizer{
              core::IterativeOptions{.use_seeding = params.use_seeding}};
          for (std::size_t trial = begin; trial < end; ++trial) {
            outcomes[trial] = traced_trial(params, trial, instances,
                                           generator, minimizer, clock);
            if (writer.has_value()) {
              const std::uint64_t append_start = now_ns();
              writer->append_trial({"", params.seed, trial}, outcomes[trial]);
              clock.append_ns += now_ns() - append_start;
            }
          }
          clock.busy_ns = now_ns() - chunk_start;
          const std::lock_guard<std::mutex> lock(merge_mutex);
          out.clock.merge(clock);
          chunk_busy_ns.push_back(clock.busy_ns);
        });
    const std::uint64_t slowest_ns =
        *std::max_element(chunk_busy_ns.begin(), chunk_busy_ns.end());
    std::uint64_t total_busy_ns = 0;
    for (const std::uint64_t ns : chunk_busy_ns) total_busy_ns += ns;
    out.chunk_imbalance.push_back(
        static_cast<double>(slowest_ns * chunk_busy_ns.size()) /
        static_cast<double>(total_busy_ns));

    sim::StudyReport report = timed(out.fold_ns, [&] {
      return sim::fold_outcomes(params, std::move(outcomes));
    });
    if (writer.has_value()) {
      writer.reset();  // close the file before reading it back
      check_traced_checkpoint(params, traced_path, report, out);
      fs::remove(traced_path);
    }
    return report;
  }

  void check_traced_checkpoint(const sim::StudyParams& params,
                               const std::string& path,
                               const sim::StudyReport& written,
                               TracedOutput& out) const {
    out.checkpoint_bytes += fs::file_size(path);
    out.checkpoint_trials += params.trials;
    const sim::CheckpointData data =
        timed(out.load_ns, [&] { return sim::load_checkpoint(path); });
    std::ifstream in(path);
    std::string line;
    std::size_t undecodable = 0;
    while (std::getline(in, line)) {
      const bool decoded = timed(out.decode_ns, [&] {
        return sim::decode_trial(line).has_value();
      });
      if (!decoded) ++undecodable;
      ++out.decode_lines;
    }
    const sim::StudyReport resumed = timed(out.resume_ns, [&] {
      std::vector<sim::TrialOutcome> replay(params.trials);
      for (std::size_t trial = 0; trial < params.trials; ++trial) {
        if (const sim::TrialOutcome* stored =
                data.find("", params.seed, trial)) {
          replay[trial] = *stored;
        }
      }
      return sim::fold_outcomes(params, std::move(replay));
    });
    out.checks.push_back({"traced checkpoint decodes and replays to the same "
                          "rows",
                          undecodable == 0 &&
                              rows_text(resumed.rows) ==
                                  rows_text(written.rows),
                          std::to_string(undecodable) + " undecodable"});
  }

  StudySpec spec_;
  std::uint64_t seed_;
  std::string checkpoint_path_;
  std::unique_ptr<sim::ThreadPool> pool_{};
  std::vector<sim::SweepPoint> points_{};
  /// The last end-to-end pass's reports, one per point.
  std::vector<sim::StudyReport> reference_{};
};

}  // namespace

std::unique_ptr<Workload> make_study_workload(std::string_view name,
                                              std::uint64_t seed, bool smoke,
                                              const std::string& scratch_dir) {
  const std::string checkpoint = scratch_dir + "/" + std::string(name) + "-" +
                                 std::to_string(::getpid()) + ".jsonl";
  return std::make_unique<StudyWorkload>(spec_for(name, smoke), seed,
                                         checkpoint);
}

}  // namespace hcsched::bench::pipeline
