#include "sim/sweep.hpp"

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace hcsched::sim {

std::vector<SweepPoint> standard_sweep() {
  constexpr double kHigh = 0.9;
  constexpr double kLow = 0.3;
  const struct {
    const char* name;
    double v_task;
    double v_machine;
  } cells[] = {
      {"HiHi", kHigh, kHigh},
      {"HiLo", kHigh, kLow},
      {"LoHi", kLow, kHigh},
      {"LoLo", kLow, kLow},
  };
  std::vector<SweepPoint> points;
  for (etc::Consistency c :
       {etc::Consistency::kInconsistent, etc::Consistency::kSemiConsistent,
        etc::Consistency::kConsistent}) {
    for (const auto& cell : cells) {
      SweepPoint p;
      p.label = std::string(etc::to_string(c)) + " " + cell.name;
      p.consistency = c;
      p.v_task = cell.v_task;
      p.v_machine = cell.v_machine;
      points.push_back(std::move(p));
    }
  }
  return points;
}

std::vector<SweepResult> run_sweep(const StudyParams& base,
                                   const std::vector<SweepPoint>& points,
                                   ThreadPool& pool) {
  std::vector<SweepResult> results;
  results.reserve(points.size());
  for (auto& report :
       run_sweep_report(base, points, pool)) {
    results.push_back(
        SweepResult{std::move(report.point), std::move(report.report.rows)});
  }
  return results;
}

std::vector<SweepReportResult> run_sweep_report(
    const StudyParams& base, const std::vector<SweepPoint>& points,
    ThreadPool& pool, const StudyHooks& hooks) {
  std::vector<SweepReportResult> results;
  results.reserve(points.size());
  for (const SweepPoint& point : points) {
    if (hooks.cancel != nullptr && hooks.cancel->cancelled()) break;
    StudyParams params = base;
    params.consistency = point.consistency;
    params.cvb.v_task = point.v_task;
    params.cvb.v_machine = point.v_machine;
    HCSCHED_TRACE_EVENT(
        "sweep.point",
        {{"label", obs::JsonValue(point.label)},
         {"v_task", obs::JsonValue(point.v_task)},
         {"v_machine", obs::JsonValue(point.v_machine)},
         {"trials", obs::JsonValue(params.trials)}});
    StudyHooks point_hooks = hooks;
    point_hooks.point_label = point.label;
    SweepReportResult r;
    r.point = point;
    {
      // Main-thread span per sweep point; the study span nests under it.
      HCSCHED_SPAN(point_span, "sweep:", point.label);
      HCSCHED_SPAN_ATTR(point_span, "label", obs::JsonValue(point.label));
      r.report = run_iterative_study_report(params, pool, point_hooks);
    }
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace hcsched::sim
