#include "workload.hpp"

#include <algorithm>
#include <thread>

#include "obs/json.hpp"

namespace hcsched::bench::pipeline {

void LayerClock::merge(const LayerClock& other) {
  busy_ns += other.busy_ns;
  split_ns += other.split_ns;
  etc_ns += other.etc_ns;
  run_ns += other.run_ns;
  append_ns += other.append_ns;
  instances += other.instances;
  cells += other.cells;
  csv_bytes += other.csv_bytes;
  tie_decisions += other.tie_decisions;
  tie_events += other.tie_events;
  run_samples_ns.insert(run_samples_ns.end(), other.run_samples_ns.begin(),
                        other.run_samples_ns.end());
  for (const auto& [name, samples] : other.map_ns) {
    auto& mine = map_ns[name];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
}

std::uint64_t LayerClock::map_total_ns() const {
  std::uint64_t total = 0;
  for (const auto& [name, samples] : map_ns) {
    for (const std::uint64_t ns : samples) total += ns;
  }
  return total;
}

sched::Schedule TimedHeuristic::do_map(const sched::Problem& problem,
                                       rng::TieBreaker& ties) const {
  const std::uint64_t start = now_ns();
  sched::Schedule schedule = inner_->map(problem, ties);
  clock_.map_ns[std::string(inner_->name())].push_back(now_ns() - start);
  return schedule;
}

sched::Schedule TimedHeuristic::do_map_seeded(
    const sched::Problem& problem, rng::TieBreaker& ties,
    const sched::Schedule* seed) const {
  const std::uint64_t start = now_ns();
  sched::Schedule schedule = inner_->map_seeded(problem, ties, seed);
  clock_.map_ns[std::string(inner_->name())].push_back(now_ns() - start);
  return schedule;
}

void Digest::add(std::string_view text) {
  const auto mix = [this](char c) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  };
  for (const char c : text) mix(c);
  // A unit separator after each field keeps ("ab","c") apart from ("a","bc").
  mix('\x1f');
}

void Digest::add(double value) { add(obs::json_number(value)); }

std::size_t study_threads() {
  // Half the processors: a pool that fills every processor of a shared host
  // waits on whichever worker the rest of the machine preempts. On a 4-vCPU
  // VM, 4 workers gave a 20% run-to-run spread in runs_per_s and 2 workers
  // gave 3% (README.md).
  const std::size_t nproc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(nproc / 2, 1, 4);
}

std::vector<std::string_view> workload_names() {
  return {"paper-grid", "greedy-large", "many-trials", "csv-iterate"};
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& scratch_dir) {
  if (name == "csv-iterate") return make_csv_iterate_workload(seed, smoke);
  return make_study_workload(name, seed, smoke, scratch_dir);
}

}  // namespace hcsched::bench::pipeline
