// Simulated Annealing (SA) — Braun et al. 2001 baseline (cited as [3]).
//
// Iterative single-solution search over complete mappings: each step
// point-mutates the current mapping (one task to a random machine); an
// improving move is always accepted, a worsening move with probability
// exp(-delta / T). The temperature starts at the initial mapping's makespan
// and is multiplied by the cooling rate each step (Braun et al. use 90%
// per temperature level; the default here cools gently per step, which is
// equivalent in budget). The walk also stops once the temperature falls to
// 1e-9 of its start, so scaling every ETC value by a power of two scales
// the run exactly. The best mapping ever seen is returned.
//
// Like Genitor, SA draws from its own seeded stream, so a configured
// instance is deterministic run-to-run but not tie-breaker-driven.
#pragma once

#include "heuristics/heuristic.hpp"

namespace hcsched::heuristics {

struct SaConfig {
  std::size_t steps = 4000;
  double cooling = 0.995;      ///< per-step multiplicative temperature decay
  bool seed_with_minmin = true;  ///< else start from a random mapping
  std::uint64_t seed = 0x5AC0FFEEULL;
};

class SimulatedAnnealing final : public Heuristic {
 public:
  explicit SimulatedAnnealing(SaConfig config = {});

  std::string_view name() const noexcept override { return "SA"; }
  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;
  Schedule do_map_seeded(const Problem& problem, TieBreaker& ties,
                      const Schedule* seed) const override;

  bool deterministic_given_ties() const noexcept override { return false; }

  const SaConfig& config() const noexcept { return config_; }

 private:
  SaConfig config_;
};

}  // namespace hcsched::heuristics
