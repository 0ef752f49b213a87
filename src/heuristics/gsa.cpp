#include "heuristics/gsa.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/cancel.hpp"
#include "ga/chromosome.hpp"
#include "ga/operators.hpp"
#include "heuristics/minmin.hpp"

namespace hcsched::heuristics {

Gsa::Gsa(GsaConfig config) : config_(config) {
  if (config_.population_size < 2) {
    throw std::invalid_argument("GSA: population_size must be >= 2");
  }
  if (!(config_.cooling > 0.0 && config_.cooling < 1.0)) {
    throw std::invalid_argument("GSA: cooling must be in (0, 1)");
  }
}

Schedule Gsa::do_map(const Problem& problem, TieBreaker& ties) const {
  return do_map_seeded(problem, ties, nullptr);
}

Schedule Gsa::do_map_seeded(const Problem& problem, TieBreaker& ties,
                         const Schedule* seed) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("GSA: no machines");
  }
  rng::Rng rng(config_.seed);

  // Flat population (kept unsorted; GSA's acceptance is local, not ranked).
  struct Member {
    ga::Chromosome chromosome;
    double makespan;
  };
  std::vector<Member> population;
  population.reserve(config_.population_size);
  ga::Evaluator evaluator(problem);
  auto add = [&](ga::Chromosome c) {
    const double span = evaluator.makespan(c.genes());
    population.push_back(Member{std::move(c), span});
  };
  if (seed != nullptr) add(ga::Chromosome::from_schedule(problem, *seed));
  if (config_.seed_with_minmin) {
    MinMin minmin;
    rng::TieBreaker det;
    add(ga::Chromosome::from_schedule(problem, minmin.map(problem, det)));
  }
  while (population.size() < config_.population_size) {
    add(ga::Chromosome::random(problem, rng));
  }

  auto best_index = [&] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < population.size(); ++i) {
      if (population[i].makespan < population[best].makespan) best = i;
    }
    return best;
  };

  // Stop at 1e-9 of the start temperature: relative, so the run is
  // scale-free.
  double temperature = population[best_index()].makespan;
  const double min_temperature = 1e-9 * temperature;
  for (std::size_t step = 0;
       step < config_.steps && temperature > min_temperature; ++step) {
    // Anytime contract: stop within one step once a budget is cancelled;
    // the population's best is always a complete mapping.
    if (core::cancellation_requested()) break;
    const std::size_t elite = best_index();
    // Two random parents -> crossover -> one mutated offspring.
    const std::size_t pa = static_cast<std::size_t>(
        rng.below(population.size()));
    const std::size_t pb = static_cast<std::size_t>(
        rng.below(population.size()));
    ga::Chromosome oa = population[pa].chromosome;
    ga::Chromosome ob = population[pb].chromosome;
    ga::crossover(oa.genes(), ob.genes(), rng);
    ga::Chromosome offspring = rng.chance(0.5) ? std::move(oa) : std::move(ob);
    ga::mutate(offspring.genes(), problem.num_machines(), rng);
    const double span = evaluator.makespan(offspring.genes());

    // SA acceptance against a random non-elite incumbent.
    std::size_t victim = static_cast<std::size_t>(
        rng.below(population.size()));
    if (victim == elite) victim = (victim + 1) % population.size();
    const double delta = span - population[victim].makespan;
    if (delta <= 0.0 || rng.uniform01() < std::exp(-delta / temperature)) {
      population[victim] = Member{std::move(offspring), span};
    }
    temperature *= config_.cooling;
  }

  (void)ties;  // GSA's stochastic decisions come from its own stream.
  return population[best_index()].chromosome.decode(problem);
}

}  // namespace hcsched::heuristics
