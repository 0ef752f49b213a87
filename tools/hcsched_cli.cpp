// hcsched_cli — command-line front end to the library.
//
//   hcsched_cli list
//   hcsched_cli generate --tasks N --machines M [--method cvb|range]
//                        [--consistency inc|semi|cons] [--v-task X]
//                        [--v-machine X] [--seed S] [--out FILE]
//   hcsched_cli map      --etc FILE --heuristic NAME [--ties det|random]
//                        [--seed S]
//   hcsched_cli iterate  --etc FILE --heuristic NAME [--ties det|random]
//                        [--seed S] [--no-seeding]
//   hcsched_cli report   --etc FILE --heuristic NAME [--ties det|random]
//                        [--seed S] [--no-seeding] [--json]
//   hcsched_cli study    [--trials N] [--tasks N] [--machines M]
//                        [--ties det|random] [--seed S] [--budget-ms N]
//                        [--checkpoint FILE] [--resume FILE]
//                        [--profile FILE.json] [--gap]
//   hcsched_cli sweep    [--trials N] [--tasks N] [--machines M]
//                        [--ties det|random] [--seed S] [--budget-ms N]
//                        [--checkpoint FILE] [--resume FILE]
//                        [--profile FILE.json] [--gap]
//   hcsched_cli stats    [--trials N] [--tasks N] [--machines M]
//                        [--ties det|random] [--seed S]
//                        [--format json|prom]
//   hcsched_cli witness  --heuristic NAME [--tasks N] [--machines M]
//                        [--ties det|random] [--max-trials N] [--seed S]
//   hcsched_cli optimal  --etc FILE [--node-limit N]
//   hcsched_cli online   --etc FILE [--policy mct|met|olb|kpb|swa]
//                        [--count N] [--mean-gap X] [--seed S]
//
// Global flags (any subcommand):
//   --trace FILE.jsonl   stream structured events (JSON Lines) to FILE
//   --no-fastpath        force the reference two-phase greedy loop (the
//                        HCSCHED_FASTPATH env var does the same for kAuto)
//   --fault SPEC[,SPEC]  arm fault injection, SPEC = <site>:<rate>[:<seed>]
//                        (the HCSCHED_FAULT env var does the same); see
//                        docs/ROBUSTNESS.md for the site registry
//   --version / -V       print the version and exit
//
// study/sweep only:
//   --profile FILE.json  aggregate the run's spans into a profile tree
//                        (per-phase count / total / self wall time) and
//                        write it to FILE; stdout is unchanged, so resumed
//                        runs stay byte-identical with or without it
//   --gap                add the Local-Search baselines to the heuristic
//                        set and a per-row optimality-gap column: mean of
//                        (makespan - ref)/ref over trials, where ref is the
//                        trial's BnB optimum when proven within the size
//                        limits and the preemptive lower bound otherwise
//                        (docs/BASELINES.md)
//
// Exit status: 0 on success, 1 on bad usage — including unknown flags and
// malformed numeric values — or (witness) not found. Usage/help goes to
// stdout for `help`, stderr on error paths. Informational robustness
// notices (resume/quarantine/cancel summaries) go to stderr so stdout
// stays diffable.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/iterative.hpp"
#include "core/optimal.hpp"
#include "core/witness.hpp"
#include "etc/consistency.hpp"
#include "etc/cvb_generator.hpp"
#include "etc/etc_io.hpp"
#include "etc/range_generator.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/fault/fault.hpp"
#include "sim/online.hpp"
#include "sim/sweep.hpp"

#ifndef HCSCHED_CLI_VERSION
#define HCSCHED_CLI_VERSION "0.0.0-dev"
#endif

namespace {

using namespace hcsched;

/// Flags every subcommand accepts.
const std::set<std::string>& global_flags() {
  static const std::set<std::string> flags = {"trace", "no-fastpath",
                                              "fault"};
  return flags;
}

/// Minimal --flag value parser; flags may appear in any order. Strict: the
/// caller declares the subcommand's flags via allow(), and finish() rejects
/// anything undeclared, so a typo exits non-zero instead of being silently
/// ignored. Numeric accessors reject trailing garbage ("5x" is an error,
/// not 5).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        error_ = "unexpected argument '" + key + "'";
        return;
      }
      key = key.substr(2);
      if (key == "no-seeding" || key == "json" || key == "gap" ||
          key == "no-fastpath") {  // boolean flags
        values_[key] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        error_ = "missing value for --" + key;
        return;
      }
      values_[key] = argv[++i];
    }
  }

  /// Declares the flags the dispatched subcommand understands.
  void allow(std::initializer_list<const char*> keys) {
    for (const char* key : keys) allowed_.insert(key);
  }

  /// Rejects any parsed flag that is neither global nor allowed.
  void finish() const {
    for (const auto& [key, value] : values_) {
      if (allowed_.count(key) == 0 && global_flags().count(key) == 0) {
        throw std::invalid_argument("unknown flag '--" + key + "'");
      }
    }
  }

  const std::string& error() const noexcept { return error_; }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string get_or(const std::string& key, std::string fallback) const {
    return get(key).value_or(std::move(fallback));
  }
  long long get_ll(const std::string& key, long long fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    long long out = 0;
    const char* begin = v->data();
    const char* end = begin + v->size();
    const auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec != std::errc{} || ptr != end) {
      throw std::invalid_argument("malformed value for --" + key + ": '" +
                                  *v + "'");
    }
    return out;
  }
  double get_d(const std::string& key, double fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    if (v->empty()) {
      throw std::invalid_argument("malformed value for --" + key + ": ''");
    }
    char* parse_end = nullptr;
    const double out = std::strtod(v->c_str(), &parse_end);
    if (parse_end != v->c_str() + v->size()) {
      throw std::invalid_argument("malformed value for --" + key + ": '" +
                                  *v + "'");
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_{};
  std::set<std::string> allowed_{};
  std::string error_{};
};

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: hcsched_cli "
      "<list|generate|map|iterate|report|study|sweep|stats|witness|optimal|"
      "online> [--flags]\n"
      "global flags: --trace FILE.jsonl (stream structured events), "
      "--no-fastpath (reference two-phase greedy loop), "
      "--fault <site>:<rate>[:<seed>] (arm fault injection), --version\n"
      "see the header of tools/hcsched_cli.cpp for the full flag list\n");
}

int usage() {
  print_usage(stderr);
  return 1;
}

etc::EtcMatrix load_etc(const Args& args) {
  const auto path = args.get("etc");
  if (!path) throw std::invalid_argument("--etc FILE is required");
  std::ifstream in(*path);
  if (!in) throw std::invalid_argument("cannot open '" + *path + "'");
  return etc::read_csv(in);
}

/// Builds the tie breaker requested by --ties/--seed. The Rng must outlive
/// the breaker, so the caller owns it.
rng::TieBreaker make_ties(const Args& args, rng::Rng& rng) {
  if (args.get_or("ties", "det") == "random") return rng::TieBreaker(rng);
  return rng::TieBreaker();
}

int cmd_list() {
  for (const auto& name : heuristics::known_heuristic_names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_generate(const Args& args) {
  const auto tasks = static_cast<std::size_t>(args.get_ll("tasks", 16));
  const auto machines = static_cast<std::size_t>(args.get_ll("machines", 4));
  rng::Rng rng(static_cast<std::uint64_t>(args.get_ll("seed", 1)));

  etc::EtcMatrix matrix;
  if (args.get_or("method", "cvb") == "range") {
    etc::RangeParams params;
    params.num_tasks = tasks;
    params.num_machines = machines;
    matrix = etc::RangeEtcGenerator(params).generate(rng);
  } else {
    etc::CvbParams params;
    params.num_tasks = tasks;
    params.num_machines = machines;
    params.v_task = args.get_d("v-task", 0.6);
    params.v_machine = args.get_d("v-machine", 0.6);
    matrix = etc::CvbEtcGenerator(params).generate(rng);
  }
  const std::string consistency = args.get_or("consistency", "inc");
  if (consistency == "cons") {
    matrix = etc::shape_consistency(matrix, etc::Consistency::kConsistent);
  } else if (consistency == "semi") {
    matrix =
        etc::shape_consistency(matrix, etc::Consistency::kSemiConsistent);
  }

  const auto out = args.get("out");
  if (out) {
    std::ofstream file(*out);
    if (!file) throw std::invalid_argument("cannot write '" + *out + "'");
    etc::write_csv(file, matrix);
    std::printf("wrote %zu x %zu ETC matrix to %s\n", matrix.num_tasks(),
                matrix.num_machines(), out->c_str());
  } else {
    etc::write_csv(std::cout, matrix);
  }
  return 0;
}

int cmd_map(const Args& args) {
  const etc::EtcMatrix matrix = load_etc(args);
  const auto name = args.get("heuristic");
  if (!name) throw std::invalid_argument("--heuristic NAME is required");
  const auto heuristic = heuristics::make_heuristic(*name);
  rng::Rng rng(static_cast<std::uint64_t>(args.get_ll("seed", 1)));
  rng::TieBreaker ties = make_ties(args, rng);

  const sched::Problem problem = sched::Problem::full(matrix);
  const sched::Schedule schedule = heuristic->map(problem, ties);
  std::printf("%s mapping, makespan %s (machine m%d):\n%s",
              std::string(heuristic->name()).c_str(),
              report::TextTable::num(schedule.makespan(), 4).c_str(),
              schedule.makespan_machine(),
              report::render_gantt(schedule).c_str());
  return 0;
}

int cmd_iterate(const Args& args) {
  const etc::EtcMatrix matrix = load_etc(args);
  const auto name = args.get("heuristic");
  if (!name) throw std::invalid_argument("--heuristic NAME is required");
  const auto heuristic = heuristics::make_heuristic(*name);
  rng::Rng rng(static_cast<std::uint64_t>(args.get_ll("seed", 1)));
  rng::TieBreaker ties = make_ties(args, rng);

  core::IterativeOptions options;
  options.use_seeding = !args.get("no-seeding").has_value();
  const auto result = core::IterativeMinimizer{options}.run(
      *heuristic, sched::Problem::full(matrix), ties);

  for (const auto& it : result.iterations) {
    std::printf("-- iteration %zu (%zu tasks, %zu machines), makespan %s on "
                "m%d --\n%s",
                it.index, it.problem().num_tasks(),
                it.problem().num_machines(),
                report::TextTable::num(it.makespan, 4).c_str(),
                it.makespan_machine,
                report::render_gantt(it.schedule).c_str());
  }
  report::TextTable table({"machine", "original CT", "final CT"});
  const auto before = result.original_finishing_times();
  for (std::size_t i = 0; i < before.size(); ++i) {
    std::string machine_label(1, 'm');
    machine_label += std::to_string(result.final_finishing_times[i].first);
    table.add_row({std::move(machine_label),
                   report::TextTable::num(before[i], 4),
                   report::TextTable::num(
                       result.final_finishing_times[i].second, 4)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("effective makespan %s -> %s%s\n",
              report::TextTable::num(result.original().makespan, 4).c_str(),
              report::TextTable::num(result.final_makespan(), 4).c_str(),
              result.makespan_increased() ? " (INCREASED)" : "");
  return 0;
}

int cmd_report(const Args& args) {
  const etc::EtcMatrix matrix = load_etc(args);
  const auto name = args.get("heuristic");
  if (!name) throw std::invalid_argument("--heuristic NAME is required");
  const auto heuristic = heuristics::make_heuristic(*name);
  rng::Rng rng(static_cast<std::uint64_t>(args.get_ll("seed", 1)));
  rng::TieBreaker ties = make_ties(args, rng);

  core::IterativeOptions options;
  options.use_seeding = !args.get("no-seeding").has_value();
  obs::counters::reset();  // report deltas for this run only
  const auto result = core::IterativeMinimizer{options}.run(
      *heuristic, sched::Problem::full(matrix), ties);

  const obs::RunReport report =
      obs::build_run_report(heuristic->name(), result);
  if (args.get("json")) {
    std::printf("%s\n", obs::to_json(report).dump(2).c_str());
  } else {
    std::printf("%s", obs::to_text(report).c_str());
  }
  return 0;
}

/// Shared study/sweep robustness setup: a deadline token for --budget-ms
/// and checkpoint reader/writer for --resume/--checkpoint. Owns the hook
/// targets so they outlive the run.
struct RobustnessSetup {
  std::optional<core::CancelToken> token{};
  // unique_ptr, not optional: CheckpointWriter owns a mutex and cannot move.
  std::unique_ptr<sim::CheckpointWriter> writer{};
  std::optional<sim::CheckpointData> resume{};
  sim::StudyHooks hooks{};
};

RobustnessSetup make_robustness(const Args& args) {
  RobustnessSetup setup;
  const long long budget_ms = args.get_ll("budget-ms", -1);
  if (budget_ms >= 0) {
    setup.token.emplace();
    setup.token->cancel_after(std::chrono::milliseconds(budget_ms));
    setup.hooks.cancel = &*setup.token;
  }
  if (const auto resume_path = args.get("resume")) {
    setup.resume.emplace(sim::load_checkpoint(*resume_path));
    setup.hooks.resume = &*setup.resume;
    std::fprintf(stderr, "resume: %zu trial(s) loaded from %s",
                 setup.resume->trials.size(), resume_path->c_str());
    if (setup.resume->corrupt_lines > 0) {
      std::fprintf(stderr, " (%zu corrupt line(s) skipped)",
                   setup.resume->corrupt_lines);
    }
    std::fprintf(stderr, "\n");
  }
  if (const auto checkpoint_path = args.get("checkpoint")) {
    setup.writer = std::make_unique<sim::CheckpointWriter>(*checkpoint_path);
    setup.hooks.checkpoint = setup.writer.get();
  }
  return setup;
}

sim::StudyParams study_params_from(const Args& args) {
  sim::StudyParams params;
  params.heuristics = {"MET",       "MCT", "Min-Min", "Genitor", "SWA",
                       "Sufferage", "KPB"};
  params.trials = static_cast<std::size_t>(args.get_ll("trials", 25));
  params.cvb.num_tasks = static_cast<std::size_t>(args.get_ll("tasks", 24));
  params.cvb.num_machines =
      static_cast<std::size_t>(args.get_ll("machines", 6));
  params.seed = static_cast<std::uint64_t>(args.get_ll("seed", 7));
  params.tie_policy = args.get_or("ties", "det") == "random"
                          ? rng::TiePolicy::kRandom
                          : rng::TiePolicy::kDeterministic;
  if (args.get("gap").has_value()) {
    params.gap = true;
    // Gap runs are baseline comparisons: include the local-search family
    // next to the paper set so the table answers "how far from optimal".
    params.heuristics.push_back("Local-Search");
    params.heuristics.push_back("Local-Search-FI");
  }
  return params;
}

/// "3.142%" — fixed-point percent for the gap column.
std::string percent_of(double fraction) {
  double value = fraction * 100.0;
  // An exact-optimum gap can come out as a sub-rounding negative epsilon
  // (the solver and the schedule sum completion times in different
  // orders); don't render that as "-0.000%".
  if (value > -5e-4 && value < 5e-4) value = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f%%", value);
  return buf;
}

void print_study_rows(const std::vector<sim::StudyRow>& rows,
                      bool gap = false) {
  std::vector<std::string> header = {"heuristic", "improved", "unchanged",
                                     "worsened", "makespan increases"};
  if (gap) {
    header.push_back("mean gap");
    header.push_back("exact refs");
  }
  report::TextTable table(header);
  for (const auto& row : rows) {
    std::vector<std::string> cells = {
        row.heuristic, std::to_string(row.machines_improved),
        std::to_string(row.machines_unchanged),
        std::to_string(row.machines_worsened),
        std::to_string(row.makespan_increases) + "/" +
            std::to_string(row.trials)};
    if (gap) {
      cells.push_back(row.gap_pct.count() > 0 ? percent_of(row.gap_pct.mean())
                                              : "-");
      cells.push_back(std::to_string(row.gap_exact_trials) + "/" +
                      std::to_string(row.trials));
    }
    table.add_row(cells);
  }
  std::printf("%s", table.to_string().c_str());
}

/// Stderr summary of one study report's robustness events.
void print_report_notices(const sim::StudyReport& report,
                          const std::string& label) {
  const char* prefix = label.empty() ? "study" : label.c_str();
  if (report.trials_replayed > 0) {
    std::fprintf(stderr, "%s: replayed %zu of %zu trial(s) from checkpoint\n",
                 prefix, report.trials_replayed, report.trials_requested);
  }
  for (const auto& q : report.quarantined) {
    std::fprintf(stderr,
                 "%s: quarantined trial %zu heuristic '%s' (site %s): %s\n",
                 prefix, q.trial, q.heuristic.c_str(), q.site.c_str(),
                 q.error.c_str());
  }
  if (report.cancelled) {
    std::fprintf(stderr, "%s: cancelled after %zu of %zu trial(s)\n", prefix,
                 report.trials_completed, report.trials_requested);
  }
}

int cmd_study(const Args& args) {
  const sim::StudyParams params = study_params_from(args);
  RobustnessSetup setup = make_robustness(args);
  sim::ThreadPool pool;
  const sim::StudyReport report =
      sim::run_iterative_study_report(params, pool, setup.hooks);
  print_study_rows(report.rows, params.gap);
  print_report_notices(report, "study");
  return 0;
}

int cmd_sweep(const Args& args) {
  const sim::StudyParams params = study_params_from(args);
  RobustnessSetup setup = make_robustness(args);
  sim::ThreadPool pool;
  const auto results = sim::run_sweep_report(params, sim::standard_sweep(),
                                             pool, setup.hooks);
  for (const auto& result : results) {
    std::printf("== %s ==\n", result.point.label.c_str());
    print_study_rows(result.report.rows, params.gap);
    print_report_notices(result.report, result.point.label);
  }
  if (results.size() < sim::standard_sweep().size()) {
    std::fprintf(stderr, "sweep: cancelled after %zu of %zu point(s)\n",
                 results.size(), sim::standard_sweep().size());
  }
  return 0;
}

int cmd_stats(const Args& args) {
  const std::string format = args.get_or("format", "json");
  if (format != "json" && format != "prom") {
    throw std::invalid_argument("unknown --format '" + format +
                                "' (want json|prom)");
  }
  if (!obs::kTraceCompiledIn) {
    std::fprintf(stderr,
                 "warning: built with HCSCHED_TRACE=0; stats will report "
                 "zeros\n");
  }
  const sim::StudyParams params = study_params_from(args);
  obs::counters::reset();
  sim::StudyReport report;
  {
    sim::ThreadPool pool;
    report = sim::run_iterative_study_report(params, pool);
  }  // joining the pool flushes every worker's counter buffer

  if (format == "prom") {
    std::printf("%s", obs::metrics::prometheus_text().c_str());
  } else {
    obs::JsonValue::Object root;
    root.reserve(5);
    root.emplace_back("schema", obs::JsonValue("hcsched.stats.v1"));
    root.emplace_back("trials", obs::JsonValue(report.trials_completed));
    root.emplace_back("heuristics",
                      obs::JsonValue(params.heuristics.size()));
    root.emplace_back("metrics",
                      obs::metrics::snapshot_json().at("metrics"));
    root.emplace_back("counters", obs::counters::snapshot().to_json());
    std::printf("%s\n", obs::JsonValue(std::move(root)).dump(2).c_str());
  }
  print_report_notices(report, "stats");
  return 0;
}

int cmd_witness(const Args& args) {
  const auto name = args.get("heuristic");
  if (!name) throw std::invalid_argument("--heuristic NAME is required");
  const auto heuristic = heuristics::make_heuristic(*name);
  core::WitnessSpec spec;
  spec.num_tasks = static_cast<std::size_t>(args.get_ll("tasks", 6));
  spec.num_machines = static_cast<std::size_t>(args.get_ll("machines", 3));
  spec.half_integers = true;
  spec.policy = args.get_or("ties", "det") == "random"
                    ? rng::TiePolicy::kRandom
                    : rng::TiePolicy::kDeterministic;
  const auto max_trials =
      static_cast<std::size_t>(args.get_ll("max-trials", 200000));
  rng::Rng rng(static_cast<std::uint64_t>(args.get_ll("seed", 42)));
  const auto witness =
      core::find_makespan_increase_witness(*heuristic, spec, rng, max_trials);
  if (!witness) {
    std::printf("no witness in %zu matrices\n", max_trials);
    return 1;
  }
  std::printf("witness after %zu matrices: makespan %s -> %s\n",
              witness->trials_used,
              report::TextTable::num(witness->original_makespan).c_str(),
              report::TextTable::num(witness->final_makespan).c_str());
  etc::write_csv(std::cout, *witness->matrix);
  return 0;
}

int cmd_optimal(const Args& args) {
  const etc::EtcMatrix matrix = load_etc(args);
  core::OptimalOptions options;
  options.node_limit = static_cast<std::uint64_t>(
      args.get_ll("node-limit", 50'000'000));
  const auto result = core::solve_optimal(sched::Problem::full(matrix),
                                          options);
  std::printf("%s makespan %s after %llu nodes:\n%s",
              result.proven_optimal ? "optimal" : "best-found (node limit)",
              report::TextTable::num(result.makespan, 4).c_str(),
              static_cast<unsigned long long>(result.nodes_explored),
              report::render_gantt(result.schedule).c_str());
  return 0;
}

int cmd_online(const Args& args) {
  const etc::EtcMatrix matrix = load_etc(args);
  const std::string policy_name = args.get_or("policy", "mct");
  sim::OnlineConfig config;
  if (policy_name == "met") {
    config.policy = sim::OnlinePolicy::kMet;
  } else if (policy_name == "olb") {
    config.policy = sim::OnlinePolicy::kOlb;
  } else if (policy_name == "kpb") {
    config.policy = sim::OnlinePolicy::kKpb;
  } else if (policy_name == "swa") {
    config.policy = sim::OnlinePolicy::kSwa;
  } else if (policy_name != "mct") {
    throw std::invalid_argument("unknown --policy '" + policy_name + "'");
  }
  rng::Rng rng(static_cast<std::uint64_t>(args.get_ll("seed", 1)));
  const auto stream = sim::make_arrival_stream(
      static_cast<std::size_t>(args.get_ll("count", 32)),
      args.get_d("mean-gap", 10.0), matrix.num_tasks(), rng);
  const sim::OnlineDispatcher dispatcher(config);
  rng::TieBreaker ties = make_ties(args, rng);
  const auto result = dispatcher.run(
      matrix, stream, std::vector<double>(matrix.num_machines(), 0.0), ties);
  std::printf(
      "%s dispatched %zu arrivals: makespan %s, mean flow time %s\n",
      sim::to_string(config.policy), result.records.size(),
      report::TextTable::num(result.makespan(), 4).c_str(),
      report::TextTable::num(result.mean_flow_time(), 4).c_str());
  return 0;
}

/// Declares the flags `command` understands on `args`; false for an unknown
/// subcommand.
bool declare_flags(const std::string& command, Args& args) {
  if (command == "list") return true;
  if (command == "generate") {
    args.allow({"tasks", "machines", "method", "consistency", "v-task",
                "v-machine", "seed", "out"});
    return true;
  }
  if (command == "map") {
    args.allow({"etc", "heuristic", "ties", "seed"});
    return true;
  }
  if (command == "iterate") {
    args.allow({"etc", "heuristic", "ties", "seed", "no-seeding"});
    return true;
  }
  if (command == "report") {
    args.allow({"etc", "heuristic", "ties", "seed", "no-seeding", "json"});
    return true;
  }
  if (command == "study" || command == "sweep") {
    args.allow({"trials", "tasks", "machines", "ties", "seed", "budget-ms",
                "checkpoint", "resume", "profile", "gap"});
    return true;
  }
  if (command == "stats") {
    args.allow({"trials", "tasks", "machines", "ties", "seed", "format"});
    return true;
  }
  if (command == "witness") {
    args.allow({"heuristic", "tasks", "machines", "ties", "max-trials",
                "seed"});
    return true;
  }
  if (command == "optimal") {
    args.allow({"etc", "node-limit"});
    return true;
  }
  if (command == "online") {
    args.allow({"etc", "policy", "count", "mean-gap", "seed"});
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "-V" || command == "version") {
    std::printf("hcsched_cli %s (trace instrumentation %s)\n",
                HCSCHED_CLI_VERSION,
                obs::kTraceCompiledIn ? "compiled in" : "compiled out");
    return 0;
  }
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  Args args(argc, argv, 2);
  if (!args.error().empty()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return usage();
  }
  if (!declare_flags(command, args)) {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", command.c_str());
    return usage();
  }

  // Install the JSONL trace sink (if requested) before dispatching so every
  // subcommand streams its events; the scoped sink flushes on exit.
  std::optional<obs::ScopedSink> trace_scope;
  try {
    args.finish();  // reject undeclared flags with a non-zero exit
    if (args.get("no-fastpath")) {
      heuristics::fastpath::set_mode(heuristics::fastpath::Mode::kForceOff);
    }
    if (const auto fault_specs = args.get("fault")) {
      std::string_view specs(*fault_specs);
      while (!specs.empty()) {
        const std::size_t comma = specs.find(',');
        const std::string_view one = specs.substr(0, comma);
        const auto plan = sim::fault::parse_spec(one);
        if (!plan) {
          throw std::invalid_argument("malformed --fault spec '" +
                                      std::string(one) +
                                      "' (want <site>:<rate>[:<seed>])");
        }
        sim::fault::arm(*plan);
        if (comma == std::string_view::npos) break;
        specs.remove_prefix(comma + 1);
      }
    }
    const auto trace_path = args.get("trace");
    const auto profile_path = args.get("profile");
    std::shared_ptr<obs::SpanCollector> profiler;
    if (trace_path || profile_path) {
      if (!obs::kTraceCompiledIn) {
        std::fprintf(stderr,
                     "warning: built with HCSCHED_TRACE=0; %s will "
                     "produce no events\n",
                     trace_path ? "--trace" : "--profile");
      }
      std::shared_ptr<obs::TraceSink> sink;
      if (trace_path) sink = std::make_shared<obs::JsonlSink>(*trace_path);
      if (profile_path) {
        profiler = std::make_shared<obs::SpanCollector>();
        sink = sink ? std::static_pointer_cast<obs::TraceSink>(
                          std::make_shared<obs::TeeSink>(
                              std::vector<std::shared_ptr<obs::TraceSink>>{
                                  std::move(sink), profiler}))
                    : std::static_pointer_cast<obs::TraceSink>(profiler);
      }
      trace_scope.emplace(std::move(sink));
    }
    int status = 1;
    if (command == "list") {
      status = cmd_list();
    } else if (command == "generate") {
      status = cmd_generate(args);
    } else if (command == "map") {
      status = cmd_map(args);
    } else if (command == "iterate") {
      status = cmd_iterate(args);
    } else if (command == "report") {
      status = cmd_report(args);
    } else if (command == "study") {
      status = cmd_study(args);
    } else if (command == "sweep") {
      status = cmd_sweep(args);
    } else if (command == "stats") {
      status = cmd_stats(args);
    } else if (command == "witness") {
      status = cmd_witness(args);
    } else if (command == "optimal") {
      status = cmd_optimal(args);
    } else if (command == "online") {
      status = cmd_online(args);
    } else {
      std::fprintf(stderr, "error: unreachable subcommand dispatch\n");
      return 1;
    }
    // Every span is closed by now (the subcommand joined its pool), so the
    // collector holds the complete forest. The profile goes to its own file
    // and a stderr notice — stdout stays byte-identical either way.
    if (profiler) {
      std::ofstream out(*profile_path);
      if (!out) {
        throw std::invalid_argument("cannot write '" + *profile_path + "'");
      }
      out << profiler->to_json().dump(2) << '\n';
      std::fprintf(stderr, "profile: wrote %zu span(s) to %s\n",
                   profiler->size(), profile_path->c_str());
    }
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
