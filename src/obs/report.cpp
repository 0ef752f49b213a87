#include "obs/report.hpp"

#include "obs/metrics.hpp"
#include "report/table.hpp"
#include "sched/metrics.hpp"

namespace hcsched::obs {

namespace {

std::string machine_label(sched::MachineId machine) {
  std::string label(1, 'm');
  label += std::to_string(machine);
  return label;
}

JsonValue machine_times_json(
    const std::vector<std::pair<sched::MachineId, double>>& times) {
  JsonValue::Object object;
  object.reserve(times.size());
  for (const auto& [machine, t] : times) {
    object.emplace_back(machine_label(machine), JsonValue(t));
  }
  return JsonValue(std::move(object));
}

double map_mean_ns(const RunReport& report) {
  return report.map_calls == 0 ? 0.0
                               : static_cast<double>(report.map_total_ns) /
                                     static_cast<double>(report.map_calls);
}

}  // namespace

RunReport build_run_report(std::string_view heuristic,
                           const core::IterativeResult& result) {
  RunReport report;
  report.heuristic.assign(heuristic);
  report.final_finishing_times = result.final_finishing_times;
  report.original_makespan = result.original().makespan;
  report.final_makespan = result.final_makespan();
  report.makespan_increased = result.makespan_increased();
  const auto& original_problem = result.original().problem();
  report.num_tasks = original_problem.num_tasks();
  report.num_machines = original_problem.num_machines();

  report.iterations.reserve(result.iterations.size());
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const core::IterationRecord& record = result.iterations[i];
    IterationSummary summary;
    summary.index = record.index;
    summary.num_tasks = record.problem().num_tasks();
    summary.num_machines = record.problem().num_machines();
    summary.makespan = record.makespan;
    summary.balance_index = sched::load_balance_index(record.schedule);
    const bool terminal = i + 1 == result.iterations.size();
    if (!terminal) {
      summary.removed_machine = record.makespan_machine;
      summary.frozen_completion_time = record.makespan;
    }
    for (sched::MachineId m : record.problem().machines()) {
      summary.completion_times.emplace_back(
          m, record.schedule.completion_time(m));
    }
    report.iterations.push_back(std::move(summary));
  }

  report.counters = counters::snapshot();
  const MetricHistogram& map = metrics::histogram("hcsched_heuristic_map_ns");
  report.map_calls = map.count();
  report.map_total_ns = map.sum();
  report.map_max_ns = map.max_ns();
  return report;
}

JsonValue to_json(const RunReport& report) {
  JsonValue::Array iterations;
  iterations.reserve(report.iterations.size());
  for (const IterationSummary& it : report.iterations) {
    JsonValue::Object object{
        {"index", JsonValue(it.index)},
        {"tasks", JsonValue(it.num_tasks)},
        {"machines", JsonValue(it.num_machines)},
        {"makespan", JsonValue(it.makespan)},
        {"balance_index", JsonValue(it.balance_index)},
        {"completion_times", machine_times_json(it.completion_times)},
    };
    if (it.removed_machine >= 0) {
      object.emplace_back("removed_machine",
                          JsonValue(machine_label(it.removed_machine)));
      object.emplace_back("frozen_completion_time",
                          JsonValue(it.frozen_completion_time));
    }
    iterations.emplace_back(std::move(object));
  }

  return JsonValue(JsonValue::Object{
      {"heuristic", JsonValue(report.heuristic)},
      {"tasks", JsonValue(report.num_tasks)},
      {"machines", JsonValue(report.num_machines)},
      {"original_makespan", JsonValue(report.original_makespan)},
      {"final_makespan", JsonValue(report.final_makespan)},
      {"makespan_increased", JsonValue(report.makespan_increased)},
      {"iterations", JsonValue(std::move(iterations))},
      {"final_finishing_times",
       machine_times_json(report.final_finishing_times)},
      {"counters", report.counters.to_json()},
      {"map", JsonValue(JsonValue::Object{
                  {"calls", JsonValue(report.map_calls)},
                  {"total_ns", JsonValue(report.map_total_ns)},
                  {"mean_ns", JsonValue(map_mean_ns(report))},
                  {"max_ns", JsonValue(report.map_max_ns)},
              })},
  });
}

std::string to_text(const RunReport& report) {
  using hcsched::report::TextTable;
  std::string out = "run report: " + report.heuristic + " on " +
                    std::to_string(report.num_tasks) + " tasks x " +
                    std::to_string(report.num_machines) + " machines\n";

  TextTable iterations({"iter", "tasks", "machines", "makespan",
                        "balance index", "removed", "frozen CT"});
  for (const IterationSummary& it : report.iterations) {
    iterations.add_row(
        {std::to_string(it.index), std::to_string(it.num_tasks),
         std::to_string(it.num_machines), TextTable::num(it.makespan, 4),
         TextTable::num(it.balance_index, 4),
         it.removed_machine >= 0 ? machine_label(it.removed_machine)
                                 : "-",
         it.removed_machine >= 0
             ? TextTable::num(it.frozen_completion_time, 4)
             : "-"});
  }
  out += iterations.to_string();

  TextTable finals({"machine", "final CT"});
  for (const auto& [machine, t] : report.final_finishing_times) {
    finals.add_row({machine_label(machine), TextTable::num(t, 4)});
  }
  out += finals.to_string();
  out += "effective makespan " + TextTable::num(report.original_makespan, 4) +
         " -> " + TextTable::num(report.final_makespan, 4) +
         (report.makespan_increased ? " (INCREASED)\n" : "\n");

  TextTable counters({"counter", "value"});
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters.add_row({std::string(to_string(static_cast<Counter>(i))),
                      std::to_string(report.counters.values[i])});
  }
  out += counters.to_string();

  if (report.map_calls != 0) {
    TextTable map({"map calls", "total ms", "mean us", "max us"});
    map.add_row(
        {std::to_string(report.map_calls),
         TextTable::num(static_cast<double>(report.map_total_ns) / 1e6, 3),
         TextTable::num(map_mean_ns(report) / 1e3, 3),
         TextTable::num(static_cast<double>(report.map_max_ns) / 1e3, 3)});
    out += map.to_string();
  }
  return out;
}

}  // namespace hcsched::obs
