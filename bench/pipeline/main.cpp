// bench_pipeline: end-to-end and per-layer benchmark of the study pipeline.
//
//   bench_pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--smoke] [--scratch DIR] [--out FILE]
//
// One process runs one workload (README.md says why each exists): repeated
// timed setups, one discarded warm-up pass, then end-to-end passes with no
// trace sink until --seconds have passed (at least three passes; one with
// --smoke, which also shrinks every input about 50x). With --trace 1 it then
// runs one profile pass under an obs::SpanCollector and one traced pass
// (workload.hpp). The last line of stdout is
//
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {NAME: {"value": X, "unit": U}, ...}}
//
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). --out writes the full result document: medians, quartiles and
// samples, per-heuristic and per-layer detail, every check, and the build
// and host fingerprint. Exits 1 when an output check fails or a pass throws,
// 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "counts.hpp"
#include "digests.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/minscan.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/fault/fault.hpp"
#include "workload.hpp"

namespace {

using hcsched::obs::JsonValue;
namespace pipeline = hcsched::bench::pipeline;

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 501;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinPasses = 3;

struct Options {
  std::string workload{};
  std::uint64_t seed = pipeline::kDefaultSeed;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".";
  std::string out{};
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const auto [ptr, ec] = std::from_chars(value.data(), end, options.seed);
      if (ec != std::errc() || ptr != end) return std::nullopt;
    } else if (flag == "--seconds") {
      const auto [ptr, ec] =
          std::from_chars(value.data(), end, options.seconds);
      if (ec != std::errc() || ptr != end || !(options.seconds > 0.0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--out") {
      options.out = value;
    } else {
      return std::nullopt;
    }
  }
  const auto names = pipeline::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return std::nullopt;
  }
  return options;
}

/// Nearest-rank percentile (p in (0, 1]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Median (the mean of the middle two for an even count) and quartiles of
/// one run's samples.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::vector<double> samples{};

  explicit Summary(std::vector<double> values) : samples(std::move(values)) {
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return;
    median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    q1 = percentile(v, 0.25);
    q3 = percentile(v, 0.75);
  }

  JsonValue to_json(std::string_view unit) const {
    JsonValue::Array values(samples.begin(), samples.end());
    return JsonValue(JsonValue::Object{
        {"median", JsonValue(median)},
        {"q1", JsonValue(q1)},
        {"q3", JsonValue(q3)},
        {"n", JsonValue(samples.size())},
        {"unit", JsonValue(unit)},
        {"samples", JsonValue(std::move(values))}});
  }
};

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Keeps one entry per check name; a failure in any pass sticks.
void note(std::vector<pipeline::Check>& all, const pipeline::Check& check) {
  for (pipeline::Check& have : all) {
    if (have.name == check.name) {
      if (have.ok && !check.ok) have = check;
      return;
    }
  }
  all.push_back(check);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The build and host a result came from.
JsonValue fingerprint(std::size_t threads) {
  return JsonValue(JsonValue::Object{
      {"compiler", JsonValue(BENCH_PIPELINE_COMPILER)},
      {"compiler_version", JsonValue(__VERSION__)},
      {"build_type", JsonValue(BENCH_PIPELINE_BUILD_TYPE)},
      {"cxx_flags", JsonValue(BENCH_PIPELINE_CXX_FLAGS)},
      {"HCSCHED_TRACE", JsonValue(HCSCHED_TRACE)},
      {"HCSCHED_FASTPATH", JsonValue(HCSCHED_FASTPATH)},
      {"HCSCHED_CHECK_ENABLED", JsonValue(HCSCHED_CHECK_ENABLED)},
      {"fastpath_enabled",
       JsonValue(hcsched::heuristics::fastpath::enabled())},
      {"minscan_lanes",
       JsonValue(hcsched::heuristics::fastpath::minscan::active_lanes())},
      {"cpu_model", JsonValue(cpu_model())},
      {"nproc", JsonValue(std::thread::hardware_concurrency())},
      {"threads", JsonValue(threads)}});
}

/// Shorthand for the metric tables below.
double d(std::uint64_t x) { return static_cast<double>(x); }

/// Time inside Genitor's map calls during the traced pass.
double genitor_ns(const pipeline::LayerClock& clock) {
  const auto genitor = clock.map_ns.find("Genitor");
  if (genitor == clock.map_ns.end()) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t ns : genitor->second) total += ns;
  return d(total);
}

/// What the traced pass and the profile pass measured.
struct TraceResults {
  pipeline::TracedOutput traced{};
  pipeline::WorkCounts counts{};  ///< deltas over the first measured pass
  double median_pass_s = 0.0;
  double profile_s = 0.0;
  std::size_t spans = 0;
};

/// The per-layer metrics, in BENCHMARK.json order (README.md says which
/// end-to-end metric each should move, on which workload).
std::vector<Metric> per_layer_metrics(const TraceResults& r) {
  const pipeline::TracedOutput& t = r.traced;
  const pipeline::LayerClock& k = t.clock;
  const pipeline::WorkCounts& c = r.counts;
  const double map_ns = d(k.map_total_ns());
  const double self_ns = d(k.run_ns) - map_ns;
  const double checkpoint_ns = d(k.append_ns + t.load_ns + t.resume_ns);
  // Decoding re-reads the checkpoint only to time decode_trial; it is not
  // part of the work the shares divide up.
  const double busy_ns = d(k.busy_ns + t.fold_ns + t.load_ns + t.resume_ns);
  const auto share = [&](double ns) { return 100.0 * ratio(ns, busy_ns); };
  std::vector<double> map_samples;
  for (const auto& [name, samples] : k.map_ns) {
    map_samples.insert(map_samples.end(), samples.begin(), samples.end());
  }
  double imbalance = 0.0;
  for (const double x : t.chunk_imbalance) imbalance += x;
  imbalance = ratio(imbalance, d(t.chunk_imbalance.size()));
  return {
      {"etc.ns_per_cell", "ns", ratio(d(k.etc_ns), d(k.cells))},
      {"etc.share_pct", "%", share(d(k.etc_ns))},
      {"rng.split_us", "us", ratio(d(k.split_ns), d(k.instances)) * 1e-3},
      {"rng.split_share_pct", "%", share(d(k.split_ns))},
      {"rng.tie_decisions", "count", d(k.tie_decisions)},
      {"rng.tie_events", "count", d(k.tie_events)},
      {"rng.tie_exposure", "ratio",
       ratio(d(k.tie_events), d(k.tie_decisions))},
      {"heuristics.map_calls", "count", d(c.map_calls)},
      {"heuristics.etc_cells", "count", d(c.etc_cells)},
      {"heuristics.map_us", "us", percentile(map_samples, 0.5) * 1e-3},
      {"heuristics.ns_per_cell", "ns", ratio(map_ns, d(c.etc_cells))},
      {"heuristics.share_pct", "%", share(map_ns)},
      {"fastpath.rescores", "count", d(c.fastpath_rescores)},
      {"fastpath.replays", "count", d(c.fastpath_replays)},
      {"fastpath.replay_ratio", "ratio",
       ratio(d(c.fastpath_replays),
             d(c.fastpath_replays + c.fastpath_rescores))},
      {"ga.steps", "count", d(c.ga_steps)},
      {"ga.share_pct", "%", share(genitor_ns(k))},
      {"core.iterative.runs", "count", d(c.iterative_runs)},
      {"core.iterative.iterations", "count", d(c.iterative_iterations)},
      {"core.iterative.self_us", "us",
       ratio(self_ns, d(k.run_samples_ns.size())) * 1e-3},
      {"core.iterative.self_share_pct", "%", share(self_ns)},
      {"sim.pool.jobs", "count", d(c.pool_jobs)},
      {"sim.pool.run_imbalance", "ratio", imbalance},
      {"sim.checkpoint.bytes_per_trial", "B",
       ratio(d(t.checkpoint_bytes), d(t.checkpoint_trials))},
      {"sim.checkpoint.share_pct", "%", share(checkpoint_ns)},
      {"sim.fold.share_pct", "%", share(d(t.fold_ns))},
      {"obs.spans", "count", d(r.spans)},
      {"obs.profile_overhead_pct", "%",
       100.0 * (ratio(r.profile_s, r.median_pass_s) - 1.0)},
      {"bench.trace_overhead_pct", "%",
       100.0 * (ratio(d(t.wall_ns) * 1e-9, r.median_pass_s) - 1.0)},
  };
}

/// Layer numbers under the names the metric catalog in README.md uses for
/// the workloads that exercise them; only in the result document.
JsonValue layer_detail(const TraceResults& r) {
  const pipeline::TracedOutput& t = r.traced;
  const pipeline::LayerClock& k = t.clock;
  JsonValue::Object map_us;
  for (const auto& [name, samples] : k.map_ns) {
    std::vector<double> v(samples.begin(), samples.end());
    map_us.emplace_back(name, JsonValue(percentile(v, 0.5) * 1e-3));
  }
  std::vector<double> runs(k.run_samples_ns.begin(), k.run_samples_ns.end());
  return JsonValue(JsonValue::Object{
      {"etc.us_per_instance",
       JsonValue(ratio(d(k.etc_ns), d(k.instances)) * 1e-3)},
      {"etc.read_csv_mb_per_s",
       JsonValue(ratio(d(k.csv_bytes) * 1e-6, d(k.etc_ns) * 1e-9))},
      {"heuristics.map_us", JsonValue(std::move(map_us))},
      {"ga.ns_per_step",
       JsonValue(ratio(genitor_ns(k), d(r.counts.ga_steps)))},
      {"core.iterative.run_p50_us", JsonValue(percentile(runs, 0.5) * 1e-3)},
      {"core.iterative.run_p95_us", JsonValue(percentile(runs, 0.95) * 1e-3)},
      {"sim.pool.wait_us_max", JsonValue(pipeline::pool_wait_max_us())},
      {"sim.checkpoint.append_us",
       JsonValue(ratio(d(k.append_ns), d(t.checkpoint_trials)) * 1e-3)},
      {"sim.checkpoint.load_ms", JsonValue(d(t.load_ns) * 1e-6)},
      {"sim.checkpoint.decode_us",
       JsonValue(ratio(d(t.decode_ns), d(t.decode_lines)) * 1e-3)},
      {"sim.checkpoint.resume_ms", JsonValue(d(t.resume_ns) * 1e-6)},
      {"sim.study.fold_ms", JsonValue(d(t.fold_ns) * 1e-6)},
      {"traced_pass_s", JsonValue(d(t.wall_ns) * 1e-9)},
      {"profile_pass_s", JsonValue(r.profile_s)}});
}

JsonValue metrics_json(const std::vector<Metric>& metrics) {
  JsonValue::Object out;
  for (const Metric& m : metrics) {
    out.emplace_back(m.name, JsonValue(JsonValue::Object{
                                 {"value", JsonValue(m.value)},
                                 {"unit", JsonValue(m.unit)}}));
  }
  return JsonValue(std::move(out));
}

/// Everything the setups and end-to-end passes produced.
struct Measurement {
  std::vector<double> setup_s{};
  std::vector<double> pass_s{};
  std::vector<double> runs_per_s{};
  std::vector<double> resume_s{};
  std::vector<double> request_ms{};
  pipeline::WorkCounts counts{};  ///< deltas over the first measured pass
  std::uint64_t digest = 0;       ///< of the first measured pass
  std::size_t attempted = 0;
  std::size_t quarantined = 0;
  double peak_rss_mib = 0.0;
  std::vector<pipeline::Check> checks{};
};

Measurement measure(pipeline::Workload& workload, const Options& options) {
  Measurement m;
  // Set up repeatedly (tearing down, untimed, in between) for at least
  // kSetupSeconds so a setup of microseconds still gets a steady median.
  double setup_total_s = 0.0;
  while (m.setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupSeconds && m.setup_s.size() < kMaxSetups)) {
    if (!m.setup_s.empty()) workload.teardown();
    const std::uint64_t start = pipeline::now_ns();
    workload.setup();
    m.setup_s.push_back(d(pipeline::now_ns() - start) * 1e-9);
    setup_total_s += m.setup_s.back();
  }
  for (const pipeline::Check& check : workload.input_checks()) {
    note(m.checks, check);
  }

  (void)workload.run_pass();  // warm-up: caches, arenas, lazy statics

  pipeline::reset_counts();
  bool counts_repeat = true;
  bool digests_repeat = true;
  const std::size_t min_passes = options.smoke ? 1 : kMinPasses;
  const std::uint64_t start = pipeline::now_ns();
  while (m.pass_s.size() < min_passes ||
         d(pipeline::now_ns() - start) * 1e-9 < options.seconds) {
    const pipeline::WorkCounts before = pipeline::read_work_counts();
    const pipeline::PassOutput pass = workload.run_pass();
    const pipeline::WorkCounts delta = pipeline::read_work_counts() - before;
    if (m.pass_s.empty()) {
      m.counts = delta;
      m.digest = pass.digest;
    }
    counts_repeat = counts_repeat && delta == m.counts;
    digests_repeat = digests_repeat && pass.digest == m.digest;
    m.pass_s.push_back(pass.seconds);
    m.runs_per_s.push_back(d(pass.runs) / pass.seconds);
    if (pass.resume_seconds > 0.0) m.resume_s.push_back(pass.resume_seconds);
    m.request_ms.insert(m.request_ms.end(), pass.request_ms.begin(),
                        pass.request_ms.end());
    m.attempted += pass.runs;
    m.quarantined += pass.quarantined;
    for (const pipeline::Check& check : pass.checks) note(m.checks, check);
    if (options.smoke) break;
  }
  m.peak_rss_mib = peak_rss_mib();
  note(m.checks, {"work counts repeat in every pass", counts_repeat, ""});
  note(m.checks, {"outputs repeat in every pass", digests_repeat, ""});
  if (options.seed == pipeline::kDefaultSeed && m.quarantined == 0) {
    const std::optional<std::uint64_t> pin =
        pipeline::pinned_digest(options.workload, options.smoke);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(m.digest));
    note(m.checks, {"outputs equal the digest pinned for the default seed",
                    pin.has_value() && *pin == m.digest, hex});
  }
  return m;
}

/// The profile pass and the traced pass, after the measured passes.
TraceResults trace(pipeline::Workload& workload, const Measurement& m) {
  TraceResults r;
  r.counts = m.counts;
  r.median_pass_s = Summary(m.pass_s).median;
  const auto collector = std::make_shared<hcsched::obs::SpanCollector>();
  {
    const hcsched::obs::ScopedSink sink(collector);
    r.profile_s = workload.run_pass().seconds;
  }
  r.spans = collector->size();
  // The traced pass recomputes every execution, including any the
  // end-to-end passes lost to injected faults, and compares only the ones
  // they completed.
  hcsched::sim::fault::disarm_all();
  r.traced = workload.run_traced();
  return r;
}

JsonValue result_document(const Options& options, const Measurement& m,
                          const std::vector<pipeline::Check>& checks,
                          std::size_t failed, std::size_t threads) {
  JsonValue::Array check_docs;
  bool correct = true;
  for (const pipeline::Check& check : checks) {
    correct = correct && check.ok;
    check_docs.emplace_back(JsonValue::Object{
        {"name", JsonValue(check.name)},
        {"ok", JsonValue(check.ok)},
        {"detail", JsonValue(check.detail)}});
  }
  JsonValue::Object extra{{"pass_s", Summary(m.pass_s).to_json("s")}};
  if (!m.resume_s.empty()) {
    extra.emplace_back("resume_s", Summary(m.resume_s).to_json("s"));
  }
  if (!m.request_ms.empty()) {
    extra.emplace_back("iterate_p50_ms",
                       JsonValue(percentile(m.request_ms, 0.5)));
    extra.emplace_back("iterate_p95_ms",
                       JsonValue(percentile(m.request_ms, 0.95)));
    extra.emplace_back("iterate_requests", JsonValue(m.request_ms.size()));
  }
  return JsonValue(JsonValue::Object{
      {"schema", JsonValue("bench_pipeline.v1")},
      {"workload", JsonValue(options.workload)},
      {"seed", JsonValue(options.seed)},
      {"seconds", JsonValue(options.seconds)},
      {"smoke", JsonValue(options.smoke)},
      {"setups", JsonValue(m.setup_s.size())},
      {"passes", JsonValue(m.pass_s.size())},
      {"fingerprint", fingerprint(threads)},
      {"correct", JsonValue(correct)},
      {"attempted", JsonValue(m.attempted)},
      {"failed", JsonValue(failed)},
      {"quarantined", JsonValue(m.quarantined)},
      {"fail_ratio", JsonValue(ratio(d(failed), d(m.attempted)))},
      {"end_to_end",
       JsonValue(JsonValue::Object{
           {"runs_per_s", Summary(m.runs_per_s).to_json("runs/s")},
           {"peak_rss_mb", Summary({m.peak_rss_mib}).to_json("MiB")},
           {"setup_s", Summary(m.setup_s).to_json("s")}})},
      {"extra", JsonValue(std::move(extra))},
      {"counts", m.counts.to_json()},
      {"checks", JsonValue(std::move(check_docs))}});
}

int run(const Options& options) {
  const auto workload = pipeline::make_workload(
      options.workload, options.seed, options.smoke, options.scratch);
  const Measurement m = measure(*workload, options);
  std::vector<pipeline::Check> checks = m.checks;
  std::optional<TraceResults> traced;
  if (options.trace) {
    traced = trace(*workload, m);
    for (const pipeline::Check& check : traced->traced.checks) {
      note(checks, check);
    }
  }
  std::size_t failed_checks = 0;
  for (const pipeline::Check& check : checks) {
    if (!check.ok) ++failed_checks;
  }
  const std::size_t failed = m.quarantined + failed_checks;

  const std::vector<Metric> reported =
      traced.has_value()
          ? per_layer_metrics(*traced)
          : std::vector<Metric>{
                {"runs_per_s", "runs/s", Summary(m.runs_per_s).median},
                {"peak_rss_mb", "MiB", m.peak_rss_mib},
                {"setup_s", "s", Summary(m.setup_s).median}};
  if (!options.out.empty()) {
    JsonValue doc =
        result_document(options, m, checks, failed, workload->threads());
    if (traced.has_value()) {
      doc.as_object().emplace_back("per_layer", metrics_json(reported));
      doc.as_object().emplace_back("layer_detail", layer_detail(*traced));
    }
    std::ofstream out(options.out);
    out << doc.dump(2) << "\n";
    if (!out) throw std::runtime_error("cannot write " + options.out);
  }

  for (const Metric& metric : reported) {
    std::cerr << "  " << metric.name << " = "
              << hcsched::obs::json_number(metric.value) << " "
              << metric.unit << "\n";
  }
  for (const pipeline::Check& check : checks) {
    if (!check.ok) {
      std::cerr << "FAILED CHECK: " << check.name << " " << check.detail
                << "\n";
    }
  }
  const JsonValue result(JsonValue::Object{
      {"correct", JsonValue(failed_checks == 0)},
      {"attempted", JsonValue(m.attempted)},
      {"failed", JsonValue(failed)},
      {"metrics", metrics_json(reported)}});
  std::cout << result.dump() << std::endl;
  return failed_checks == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse_options(argc, argv);
  if (!options.has_value()) {
    std::cerr << "usage: bench_pipeline --workload "
                 "paper-grid|greedy-large|many-trials|csv-iterate "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
                 "[--scratch DIR] [--out FILE]\n";
    return 2;
  }
  try {
    return run(*options);
  } catch (const std::exception& error) {
    std::cerr << "bench_pipeline: " << error.what() << "\n";
    return 1;
  }
}
