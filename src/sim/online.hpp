// Online (dynamic) dispatch substrate — Maheswaran et al. 1999, the
// paper's reference [14], where SWA and KPB originate as *immediate-mode*
// dynamic heuristics.
//
// Tasks arrive over time; each is dispatched on arrival to one machine
// using an immediate-mode policy that sees only the current machine ready
// times and the task's ETC row. This substrate closes the loop with the
// paper's §1 motivation: after an off-line batch mapping, the per-machine
// availability vector (original vs iterative-technique finishing times)
// becomes the initial state of the online system, and better non-makespan
// finishing times translate directly into earlier online completions.
#pragma once

#include <cstdint>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "rng/tie_break.hpp"

namespace hcsched::sim {

/// Immediate-mode dispatch policies (Maheswaran et al. taxonomy).
enum class OnlinePolicy : std::uint8_t {
  kMct,  ///< earliest completion time (their baseline)
  kMet,  ///< minimum execution time
  kOlb,  ///< soonest-ready machine
  kKpb,  ///< earliest completion within the k-percent-best subset
  kSwa,  ///< switch MCT/MET on the load balance index
};

const char* to_string(OnlinePolicy policy) noexcept;

struct OnlineTask {
  etc::TaskId task = -1;   ///< row in the ETC matrix
  double arrival = 0.0;    ///< arrival time (non-decreasing in the stream)
};

struct OnlineDispatchRecord {
  etc::TaskId task = -1;
  etc::MachineId machine = -1;
  double arrival = 0.0;
  double start = 0.0;
  double finish = 0.0;
};

struct OnlineResult {
  std::vector<OnlineDispatchRecord> records{};
  std::vector<double> final_ready{};  ///< by machine index

  double makespan() const;
  /// Mean of (finish - arrival) over tasks: the online flow-time metric.
  double mean_flow_time() const;
};

struct OnlineConfig {
  OnlinePolicy policy = OnlinePolicy::kMct;
  double kpb_percent = 70.0;
  double swa_low = 0.35;
  double swa_high = 0.49;
};

class OnlineDispatcher {
 public:
  explicit OnlineDispatcher(OnlineConfig config = {});

  /// Dispatches `stream` (arrival-ordered) over machines whose initial
  /// availability is `initial_ready` (size = matrix machine count). A task
  /// starts at max(arrival, machine ready). Throws std::invalid_argument on
  /// an out-of-order or non-finite arrival.
  OnlineResult run(const etc::EtcMatrix& matrix,
                   const std::vector<OnlineTask>& stream,
                   std::vector<double> initial_ready,
                   rng::TieBreaker& ties) const;

  const OnlineConfig& config() const noexcept { return config_; }

 private:
  OnlineConfig config_;
};

/// Poisson-ish arrival stream: `count` tasks with exponential(1/mean_gap)
/// inter-arrival times, task ids cycling over the matrix rows. Throws
/// std::invalid_argument unless `mean_gap` is finite and >= 0. A huge
/// finite gap can still sum to infinite arrivals, which run() rejects.
std::vector<OnlineTask> make_arrival_stream(std::size_t count,
                                            double mean_gap,
                                            std::size_t num_matrix_tasks,
                                            rng::Rng& rng);

}  // namespace hcsched::sim
