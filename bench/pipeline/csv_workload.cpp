// csv-iterate: the `hcsched_cli iterate` path, one instance at a time. One
// client in a closed loop sends each request after the previous one has
// returned; a request parses an in-memory ETC CSV text, builds the full
// problem and runs the iterative technique. The study layers (pool, fold,
// checkpoint) are not used at all, and the two-phase heuristics are left to
// greedy-large.
#include <array>
#include <bit>
#include <cmath>
#include <exception>

#include "core/iterative.hpp"
#include "etc/cvb_generator.hpp"
#include "etc/etc_io.hpp"
#include "heuristics/registry.hpp"
#include "workload.hpp"

namespace hcsched::bench::pipeline {

namespace {

constexpr std::array<std::string_view, 6> kHeuristics = {
    "MET", "MCT", "OLB", "KPB", "SWA", "Sufferage"};

class CsvIterateWorkload final : public Workload {
 public:
  CsvIterateWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        tasks_(smoke ? 256 : 1024),
        machines_(smoke ? 16 : 64),
        inputs_(smoke ? 2 : 8),
        requests_(smoke ? 6 : 24) {}

  void setup() override {
    const etc::CvbEtcGenerator generator(
        {.num_tasks = tasks_, .num_machines = machines_});
    rng::Rng rng(seed_);
    for (std::size_t i = 0; i < inputs_; ++i) {
      matrices_.push_back(generator.generate(rng));
      texts_.push_back(etc::to_csv(matrices_.back()));
    }
    for (const std::string_view name : kHeuristics) {
      heuristics_.push_back(heuristics::make_heuristic(name));
    }
  }

  void teardown() override {
    matrices_.clear();
    texts_.clear();
    heuristics_.clear();
  }

  std::vector<Check> input_checks() const override {
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < inputs_; ++i) {
      if (!(etc::from_csv(texts_[i]) == matrices_[i])) ++mismatched;
    }
    return {{"from_csv(to_csv(M)) equals M", mismatched == 0,
             std::to_string(mismatched) + " of " + std::to_string(inputs_) +
                 " differ"}};
  }

  PassOutput run_pass() override {
    PassOutput out;
    finals_.assign(requests_, {});
    Digest digest;
    std::string violation;
    const core::IterativeMinimizer minimizer;
    for (std::size_t r = 0; r < requests_; ++r) {
      const std::uint64_t start = now_ns();
      try {
        const etc::EtcMatrix matrix = etc::from_csv(text_for(r));
        const sched::Problem problem = sched::Problem::full(matrix);
        rng::Rng rng = rng::Rng(seed_).split(r);
        rng::TieBreaker ties(rng);
        const core::IterativeResult result =
            minimizer.run(*heuristics_[r % kHeuristics.size()], problem, ties);
        out.request_ms.push_back(static_cast<double>(now_ns() - start) *
                                 1e-6);
        finals_[r] = result.final_finishing_times;
        if (violation.empty()) violation = theorem_violation(r, result);
      } catch (const std::exception&) {
        out.request_ms.push_back(static_cast<double>(now_ns() - start) *
                                 1e-6);
        ++out.quarantined;
      }
      for (const auto& [machine, finish] : finals_[r]) {
        digest.add(std::to_string(machine));
        digest.add(finish);
      }
    }
    for (const double ms : out.request_ms) out.seconds += ms * 1e-3;
    out.runs = requests_;
    out.digest = digest.value();
    out.checks.push_back({"MET and MCT never move a finishing time",
                          violation.empty(), violation});
    return out;
  }

  TracedOutput run_traced() override {
    TracedOutput out;
    LayerClock& clock = out.clock;
    std::vector<std::unique_ptr<TimedHeuristic>> instances;
    for (const std::string_view name : kHeuristics) {
      instances.push_back(std::make_unique<TimedHeuristic>(
          heuristics::make_heuristic(name), clock));
    }
    const core::IterativeMinimizer minimizer;
    std::size_t compared = 0;
    std::size_t mismatched = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t r = 0; r < requests_; ++r) {
      const std::string& text = text_for(r);
      const etc::EtcMatrix matrix =
          timed(clock.etc_ns, [&] { return etc::from_csv(text); });
      const sched::Problem problem =
          timed(clock.etc_ns, [&] { return sched::Problem::full(matrix); });
      ++clock.instances;
      clock.cells += matrix.num_tasks() * matrix.num_machines();
      clock.csv_bytes += text.size();
      rng::Rng rng =
          timed(clock.split_ns, [&] { return rng::Rng(seed_).split(r); });
      rng::TieBreaker ties(rng);
      const std::uint64_t run_start = now_ns();
      const core::IterativeResult result =
          minimizer.run(*instances[r % kHeuristics.size()], problem, ties);
      const std::uint64_t ns = now_ns() - run_start;
      clock.run_ns += ns;
      clock.run_samples_ns.push_back(ns);
      clock.tie_decisions += ties.decisions();
      clock.tie_events += ties.tie_events();
      if (finals_[r].empty()) continue;  // that request failed end to end
      ++compared;
      if (!same_finishing_times(result.final_finishing_times, finals_[r])) {
        ++mismatched;
      }
    }
    clock.busy_ns = now_ns() - start;
    out.chunk_imbalance.push_back(1.0);  // one client, nothing to balance
    out.wall_ns = clock.busy_ns;
    out.checks.push_back({"traced finishing times equal the end-to-end ones",
                          compared > 0 && mismatched == 0,
                          std::to_string(compared) + " compared, " +
                              std::to_string(mismatched) + " differ"});
    return out;
  }

  std::size_t threads() const override { return 1; }

 private:
  using FinishingTimes = std::vector<std::pair<sched::MachineId, double>>;

  /// Request r parses input r mod inputs with heuristic r mod 6, so one
  /// pass of 24 requests parses every input three times and runs every
  /// heuristic four times; consecutive requests never share an input.
  const std::string& text_for(std::size_t r) const {
    return texts_[r % inputs_];
  }

  /// The paper's theorem for MET and MCT: no machine's finishing time moves
  /// between the original mapping and its removal. Empty when it holds.
  std::string theorem_violation(std::size_t r,
                                const core::IterativeResult& result) const {
    const std::string_view name = kHeuristics[r % kHeuristics.size()];
    if (name != "MET" && name != "MCT") return {};
    const std::vector<double> before = result.original_finishing_times();
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (std::abs(before[i] - result.final_finishing_times[i].second) >
          1e-9) {
        return "request " + std::to_string(r) + " (" + std::string(name) +
               ") moved machine " +
               std::to_string(result.final_finishing_times[i].first);
      }
    }
    return {};
  }

  static bool same_finishing_times(const FinishingTimes& a,
                                   const FinishingTimes& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].first != b[i].first ||
          std::bit_cast<std::uint64_t>(a[i].second) !=
              std::bit_cast<std::uint64_t>(b[i].second)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  std::size_t tasks_;
  std::size_t machines_;
  std::size_t inputs_;
  std::size_t requests_;
  std::vector<etc::EtcMatrix> matrices_{};
  std::vector<std::string> texts_{};
  std::vector<std::unique_ptr<heuristics::Heuristic>> heuristics_{};
  /// The last end-to-end pass's final finishing times, per request.
  std::vector<FinishingTimes> finals_{};
};

}  // namespace

std::unique_ptr<Workload> make_csv_iterate_workload(std::uint64_t seed,
                                                    bool smoke) {
  return std::make_unique<CsvIterateWorkload>(seed, smoke);
}

}  // namespace hcsched::bench::pipeline
