// Genitor — paper §3.1, Figure 1; Whitley [17].
//
// Steady-state genetic algorithm over mapping chromosomes, ranked by
// makespan. Each step performs one crossover (two rank-biased parents, two
// offspring inserted, worst members removed) and one mutation (a rank-biased
// chromosome is copied, point-mutated and inserted). The population is
// elitist: the best member can only ever be replaced by a better one, so the
// returned mapping's makespan never exceeds any seed's.
//
// A step allocates nothing: chromosomes are rows of one flat gene pool, the
// population is a Ranking of them, and one Evaluator computes makespans. The
// RNG draw order is a contract (docs/ALGORITHMS.md, Genitor).
//
// In the iterative technique, `map_seeded` injects the previous iteration's
// mapping (its restriction to the surviving machines) into the initial
// population — the paper's §3.1 argument that iterative Genitor either
// improves or keeps the mapping rests exactly on this seeding plus elitism.
#pragma once

#include "ga/chromosome.hpp"
#include "heuristics/heuristic.hpp"

namespace hcsched::ga {

struct GenitorConfig {
  std::size_t population_size = 100;
  /// Total steady-state steps (each step = 1 crossover + 1 mutation trial).
  std::size_t total_steps = 2000;
  /// Stop early after this many consecutive steps without improving the
  /// best makespan (0 disables early stopping).
  std::size_t stop_after_stale = 0;
  /// Linear-rank selection pressure in [1, 2] (see ga::select_rank).
  double selection_bias = 1.5;
  /// Base RNG seed; map() derives its stream from this, so a Genitor
  /// instance is reproducible run-to-run.
  std::uint64_t seed = 0xC01055EEDULL;
  /// Also seed the initial population with a Min-Min mapping (standard
  /// practice in this literature; improves convergence dramatically).
  bool seed_with_minmin = true;
};

class Genitor final : public heuristics::Heuristic {
 public:
  explicit Genitor(GenitorConfig config = {});

  std::string_view name() const noexcept override { return "Genitor"; }
  Schedule do_map(const Problem& problem,
               heuristics::TieBreaker& ties) const override;
  Schedule do_map_seeded(const Problem& problem, heuristics::TieBreaker& ties,
                      const Schedule* seed) const override;

  bool deterministic_given_ties() const noexcept override { return false; }

  const GenitorConfig& config() const noexcept { return config_; }

  /// Statistics of the last map() call (steps run, improving steps, first
  /// and last best makespan): the only view of early stopping and
  /// cancellation that survives HCSCHED_TRACE=0, where the ga_steps
  /// counter compiles out.
  struct RunStats {
    std::size_t steps_executed = 0;
    std::size_t improvements = 0;
    double initial_best = 0.0;
    double final_best = 0.0;
  };
  // lint:allow(dead-symbol) — convergence record, see RunStats
  const RunStats& last_run() const noexcept { return last_run_; }

 private:
  GenitorConfig config_;
  mutable RunStats last_run_{};
};

}  // namespace hcsched::ga
