// Shared vocabulary of the pipeline benchmark (bench_pipeline).
//
// A Workload owns one input set and drives the library only through its
// public calls. It runs in three forms:
//   * setup()      — builds what a pass needs (pool, inputs); timed as
//                    setup_s and repeated so the median is steady;
//   * run_pass()   — one end-to-end pass with no trace sink installed;
//   * run_traced() — the same work re-run through the benchmark's own
//                    timed loop, with a timer around every layer's public call.
//                    Its outputs must equal the last end-to-end pass bit for
//                    bit, which proves the layer times describe that work.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "heuristics/heuristic.hpp"

namespace hcsched::bench::pipeline {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Calls fn(), adds its wall time to `acc_ns` and returns its result.
template <typename Fn>
auto timed(std::uint64_t& acc_ns, Fn&& fn) {
  const std::uint64_t start = now_ns();
  auto result = fn();
  acc_ns += now_ns() - start;
  return result;
}

/// One output check. Every failed check counts toward the run's `failed`
/// total and makes the benchmark exit non-zero.
struct Check {
  std::string name{};
  bool ok = true;
  std::string detail{};
};

/// Wall time spent in each layer during the traced pass, accumulated by one
/// thread (one pool chunk, or the csv-iterate request loop) and merged after.
struct LayerClock {
  std::uint64_t busy_ns = 0;    ///< the chunk's (or request loop's) wall time
  std::uint64_t split_ns = 0;   ///< rng::Rng::split
  std::uint64_t etc_ns = 0;     ///< ETC generation/parsing + Problem::full
  std::uint64_t run_ns = 0;     ///< IterativeMinimizer::run, maps included
  std::uint64_t append_ns = 0;  ///< CheckpointWriter::append_trial
  std::uint64_t instances = 0;  ///< ETC matrices produced (trials, requests)
  std::uint64_t cells = 0;      ///< ETC cells produced
  std::uint64_t csv_bytes = 0;  ///< CSV text parsed
  std::uint64_t tie_decisions = 0;
  std::uint64_t tie_events = 0;
  std::vector<std::uint64_t> run_samples_ns{};
  /// Per heuristic name: the duration of every map call.
  std::map<std::string, std::vector<std::uint64_t>, std::less<>> map_ns{};

  void merge(const LayerClock& other);
  std::uint64_t map_total_ns() const;
};

/// Forwards map calls to a registry heuristic and records each call's
/// duration in a LayerClock. It keeps the wrapped heuristic's name, its
/// seeded entry point and the fastpath reuse context (installed per thread
/// by IterativeMinimizer), so the schedules it returns are the wrapped
/// heuristic's own.
class TimedHeuristic final : public heuristics::Heuristic {
 public:
  TimedHeuristic(std::unique_ptr<heuristics::Heuristic> inner,
                 LayerClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  bool deterministic_given_ties() const noexcept override {
    return inner_->deterministic_given_ties();
  }

 protected:
  sched::Schedule do_map(const sched::Problem& problem,
                         rng::TieBreaker& ties) const override;
  sched::Schedule do_map_seeded(const sched::Problem& problem,
                                rng::TieBreaker& ties,
                                const sched::Schedule* seed) const override;

 private:
  std::unique_ptr<heuristics::Heuristic> inner_;
  LayerClock& clock_;
};

/// What one end-to-end pass did and whether its outputs were correct.
struct PassOutput {
  double seconds = 0.0;         ///< wall time of the library calls
  std::size_t runs = 0;         ///< iterative executions attempted
  std::size_t quarantined = 0;  ///< executions that failed
  std::uint64_t digest = 0;     ///< FNV-1a of the pass's outputs
  double resume_seconds = 0.0;  ///< many-trials: load + resumed study
  std::vector<double> request_ms{};  ///< csv-iterate: per-request latency
  std::vector<Check> checks{};
};

/// The traced pass: merged layer clocks plus the work outside the chunks.
struct TracedOutput {
  std::uint64_t wall_ns = 0;
  LayerClock clock{};
  /// Per parallel_for_chunks call: slowest chunk over the mean chunk.
  std::vector<double> chunk_imbalance{};
  std::uint64_t fold_ns = 0;    ///< sim::fold_outcomes
  std::uint64_t load_ns = 0;    ///< sim::load_checkpoint
  std::uint64_t decode_ns = 0;  ///< sim::decode_trial over every line
  std::uint64_t decode_lines = 0;
  std::uint64_t resume_ns = 0;  ///< replay of the loaded trials + fold
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_trials = 0;
  std::vector<Check> checks{};
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the pass state.
  virtual void setup() = 0;
  /// Releases what setup() built, so the next setup() starts from nothing.
  virtual void teardown() = 0;
  /// Checks on the inputs setup() prepared (not timed).
  virtual std::vector<Check> input_checks() const { return {}; }
  virtual PassOutput run_pass() = 0;
  /// Re-runs the last end-to-end pass through the timed loop and checks
  /// that it reproduces that pass's outputs.
  virtual TracedOutput run_traced() = 0;
  /// Worker threads the workload's passes use.
  virtual std::size_t threads() const = 0;
};

inline constexpr std::uint64_t kDefaultSeed = 20070326;  // IPDPS 2007

/// The workload names, in BENCHMARK.json order.
std::vector<std::string_view> workload_names();

/// Throws std::invalid_argument for an unknown name. `scratch_dir` receives
/// the checkpoint files of many-trials.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& scratch_dir);

std::unique_ptr<Workload> make_study_workload(std::string_view name,
                                              std::uint64_t seed, bool smoke,
                                              const std::string& scratch_dir);
std::unique_ptr<Workload> make_csv_iterate_workload(std::uint64_t seed,
                                                    bool smoke);

/// FNV-1a over output text; doubles go through obs::json_number, which
/// round-trips exactly.
class Digest {
 public:
  void add(std::string_view text);
  void add(double value);
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Worker threads for the study workloads: nproc / 2, clamped to [1, 4].
std::size_t study_threads();

}  // namespace hcsched::bench::pipeline
