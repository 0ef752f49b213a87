// Switching Algorithm (SWA) — paper §3.5, Figure 13; Maheswaran et al. [14].
//
// A hybrid of MCT and MET driven by the load balance index
// BI = min(ready) / max(ready). The first task is mapped with MCT; after
// every mapping BI is recomputed and the active heuristic switches to MET
// when BI rises above the high threshold (the suite is well balanced, so
// spend balance on fast machines) and back to MCT when BI falls below the
// low threshold. The paper's example (Tables 9-11) uses a high threshold of
// 0.49; its low threshold is OCR-damaged — the published BI traces require
// 4/13 < low < 0.49, and this implementation defaults to 0.35 (DESIGN.md §4).
//
// The paper shows SWA can increase its makespan under the iterative
// technique even with deterministic ties, because removing the makespan
// machine changes the BI trajectory and hence which sub-heuristic maps each
// task.
#pragma once

#include <optional>

#include "heuristics/heuristic.hpp"

namespace hcsched::heuristics {

/// Which sub-heuristic mapped a task (paper Tables 10/11 last column).
enum class SwaMode : std::uint8_t { kMct, kMet };

struct SwaStep {
  TaskId task = -1;
  MachineId machine = -1;
  double completion = 0.0;
  /// BI computed after the previous mapping ("x" — nullopt — for the first).
  std::optional<double> balance_index{};
  SwaMode mode = SwaMode::kMct;
};

class Swa final : public Heuristic {
 public:
  explicit Swa(double low_threshold = 0.35, double high_threshold = 0.49);

  std::string_view name() const noexcept override { return "SWA"; }
  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;

  Schedule map_traced(const Problem& problem, TieBreaker& ties,
                      std::vector<SwaStep>* trace) const;

  double low_threshold() const noexcept { return low_; }
  double high_threshold() const noexcept { return high_; }

 private:
  double low_;
  double high_;
};

const char* to_string(SwaMode mode) noexcept;

}  // namespace hcsched::heuristics
