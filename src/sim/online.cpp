#include "sim/online.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hcsched::sim {

const char* to_string(OnlinePolicy policy) noexcept {
  switch (policy) {
    case OnlinePolicy::kMct:
      return "MCT";
    case OnlinePolicy::kMet:
      return "MET";
    case OnlinePolicy::kOlb:
      return "OLB";
    case OnlinePolicy::kKpb:
      return "KPB";
    case OnlinePolicy::kSwa:
      return "SWA";
  }
  return "?";
}

double OnlineResult::makespan() const {
  double best = 0.0;
  for (double r : final_ready) best = std::max(best, r);
  return best;
}

double OnlineResult::mean_flow_time() const {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : records) sum += r.finish - r.arrival;
  return sum / static_cast<double>(records.size());
}

OnlineDispatcher::OnlineDispatcher(OnlineConfig config) : config_(config) {
  if (config_.kpb_percent <= 0.0 || config_.kpb_percent > 100.0) {
    throw std::invalid_argument("OnlineDispatcher: kpb_percent in (0, 100]");
  }
  if (!(0.0 <= config_.swa_low && config_.swa_low <= config_.swa_high &&
        config_.swa_high <= 1.0)) {
    throw std::invalid_argument("OnlineDispatcher: bad SWA thresholds");
  }
}

OnlineResult OnlineDispatcher::run(const etc::EtcMatrix& matrix,
                                   const std::vector<OnlineTask>& stream,
                                   std::vector<double> initial_ready,
                                   rng::TieBreaker& ties) const {
  const std::size_t machines = matrix.num_machines();
  if (initial_ready.size() != machines) {
    throw std::invalid_argument(
        "OnlineDispatcher: initial_ready size must match machine count");
  }
  OnlineResult result;
  result.final_ready = std::move(initial_ready);
  result.records.reserve(stream.size());

  // SWA state: first dispatch uses MCT; mode switches on the BI thereafter.
  bool swa_met_mode = false;
  bool first = true;

  std::vector<double> scores(machines);
  std::vector<std::size_t> order(machines);
  double prev_arrival = -1.0;
  for (const OnlineTask& t : stream) {
    if (t.arrival < prev_arrival) {
      throw std::invalid_argument(
          "OnlineDispatcher: stream must be arrival-ordered");
    }
    // Infinite arrivals make every score infinite, and NaN ones compare
    // false against everything: either way no machine wins a decision.
    if (!std::isfinite(t.arrival)) {
      throw std::invalid_argument(
          "OnlineDispatcher: arrival time of task " + std::to_string(t.task) +
          " is not finite (" + std::to_string(t.arrival) + ")");
    }
    prev_arrival = t.arrival;
    if (t.task < 0 ||
        static_cast<std::size_t>(t.task) >= matrix.num_tasks()) {
      throw std::out_of_range("OnlineDispatcher: task id outside matrix");
    }

    // Effective availability seen by the arriving task.
    auto avail = [&](std::size_t m) {
      return std::max(result.final_ready[m], t.arrival);
    };

    std::size_t chosen = 0;
    switch (config_.policy) {
      case OnlinePolicy::kMct: {
        for (std::size_t m = 0; m < machines; ++m) {
          scores[m] = avail(m) + matrix.at(t.task, static_cast<int>(m));
        }
        chosen = ties.choose_min(scores);
        break;
      }
      case OnlinePolicy::kMet: {
        for (std::size_t m = 0; m < machines; ++m) {
          scores[m] = matrix.at(t.task, static_cast<int>(m));
        }
        chosen = ties.choose_min(scores);
        break;
      }
      case OnlinePolicy::kOlb: {
        for (std::size_t m = 0; m < machines; ++m) scores[m] = avail(m);
        chosen = ties.choose_min(scores);
        break;
      }
      case OnlinePolicy::kKpb: {
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return matrix.at(t.task, static_cast<int>(a)) <
                                  matrix.at(t.task, static_cast<int>(b));
                         });
        const auto k = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::floor(
                   static_cast<double>(machines) * config_.kpb_percent /
                   100.0)));
        std::vector<double> subset_ct(k);
        for (std::size_t i = 0; i < k; ++i) {
          subset_ct[i] =
              avail(order[i]) + matrix.at(t.task, static_cast<int>(order[i]));
        }
        chosen = order[ties.choose_min(subset_ct)];
        break;
      }
      case OnlinePolicy::kSwa: {
        if (!first) {
          const double lo = *std::min_element(result.final_ready.begin(),
                                              result.final_ready.end());
          const double hi = *std::max_element(result.final_ready.begin(),
                                              result.final_ready.end());
          const double bi = hi > 0.0 ? lo / hi : 0.0;
          if (bi > config_.swa_high) {
            swa_met_mode = true;
          } else if (bi < config_.swa_low) {
            swa_met_mode = false;
          }
        }
        for (std::size_t m = 0; m < machines; ++m) {
          scores[m] = swa_met_mode
                          ? matrix.at(t.task, static_cast<int>(m))
                          : avail(m) + matrix.at(t.task, static_cast<int>(m));
        }
        chosen = ties.choose_min(scores);
        break;
      }
    }

    OnlineDispatchRecord record;
    record.task = t.task;
    record.machine = static_cast<etc::MachineId>(chosen);
    record.arrival = t.arrival;
    record.start = avail(chosen);
    record.finish = record.start + matrix.at(t.task, static_cast<int>(chosen));
    result.final_ready[chosen] = record.finish;
    result.records.push_back(record);
    first = false;
  }
  return result;
}

std::vector<OnlineTask> make_arrival_stream(std::size_t count,
                                            double mean_gap,
                                            std::size_t num_matrix_tasks,
                                            rng::Rng& rng) {
  if (num_matrix_tasks == 0) {
    throw std::invalid_argument("make_arrival_stream: empty ETC matrix");
  }
  if (!(mean_gap >= 0.0) || !std::isfinite(mean_gap)) {
    throw std::invalid_argument(
        "make_arrival_stream: mean gap must be finite and >= 0, got " +
        std::to_string(mean_gap));
  }
  std::vector<OnlineTask> stream;
  stream.reserve(count);
  double clock = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Exponential inter-arrival: -mean * ln(1 - U).
    clock += -mean_gap * std::log(1.0 - rng.uniform01());
    OnlineTask t;
    t.task = static_cast<etc::TaskId>(i % num_matrix_tasks);
    t.arrival = clock;
    stream.push_back(t);
  }
  return stream;
}

}  // namespace hcsched::sim
