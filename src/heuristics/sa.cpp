#include "heuristics/sa.hpp"

#include <cmath>
#include <stdexcept>

#include "core/cancel.hpp"
#include "ga/chromosome.hpp"
#include "ga/operators.hpp"
#include "heuristics/minmin.hpp"

namespace hcsched::heuristics {

SimulatedAnnealing::SimulatedAnnealing(SaConfig config) : config_(config) {
  if (!(config_.cooling > 0.0 && config_.cooling < 1.0)) {
    throw std::invalid_argument("SA: cooling must be in (0, 1)");
  }
}

Schedule SimulatedAnnealing::do_map(const Problem& problem,
                                 TieBreaker& ties) const {
  return do_map_seeded(problem, ties, nullptr);
}

Schedule SimulatedAnnealing::do_map_seeded(const Problem& problem,
                                        TieBreaker& ties,
                                        const Schedule* seed) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("SA: no machines");
  }
  rng::Rng rng(config_.seed);

  ga::Chromosome current = [&] {
    if (seed != nullptr) return ga::Chromosome::from_schedule(problem, *seed);
    if (config_.seed_with_minmin) {
      MinMin minmin;
      rng::TieBreaker det;
      return ga::Chromosome::from_schedule(problem, minmin.map(problem, det));
    }
    return ga::Chromosome::random(problem, rng);
  }();
  ga::Evaluator evaluator(problem);
  double current_span = evaluator.makespan(current.genes());

  ga::Chromosome best = current;
  double best_span = current_span;

  double temperature = current_span;
  const double min_temperature = 1e-9 * temperature;
  for (std::size_t step = 0; step < config_.steps &&
                             temperature > min_temperature &&
                             problem.num_tasks() > 0;
       ++step) {
    // Anytime contract: a cancelled budget stops the walk within one step;
    // `best` is always a complete, valid mapping.
    if (core::cancellation_requested()) break;
    ga::Chromosome candidate = current;
    ga::mutate(candidate.genes(), problem.num_machines(), rng);
    const double span = evaluator.makespan(candidate.genes());
    const double delta = span - current_span;
    if (delta <= 0.0 ||
        rng.uniform01() < std::exp(-delta / temperature)) {
      current = std::move(candidate);
      current_span = span;
      if (current_span < best_span) {
        best = current;
        best_span = current_span;
      }
    }
    temperature *= config_.cooling;
  }

  (void)ties;  // SA's stochastic decisions come from its own stream.
  return best.decode(problem);
}

}  // namespace hcsched::heuristics
