#include "heuristics/localsearch/localsearch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/cancel.hpp"
#include "heuristics/minmin.hpp"
#include "obs/counters.hpp"

namespace hcsched::heuristics {

namespace {

/// Makespan after replacing two machines' loads; O(m) over the load vector.
double span_with(const std::vector<double>& load, std::size_t a, double new_a,
                 std::size_t b, double new_b) {
  double span = std::max(new_a, new_b);
  for (std::size_t m = 0; m < load.size(); ++m) {
    if (m != a && m != b && load[m] > span) span = load[m];
  }
  return span;
}

std::vector<double> loads_of(const Problem& problem,
                             const ga::Chromosome& chromosome) {
  std::vector<double> load = problem.initial_ready_times();
  for (std::size_t i = 0; i < chromosome.size(); ++i) {
    load[chromosome.genes()[i]] +=
        problem.etc_at(problem.tasks()[i], chromosome.genes()[i]);
  }
  return load;
}

/// One descent pass over the move+swap neighborhood in canonical order
/// (all moves by (task, target), then all swaps by (task, task)).
/// Steepest: remember the best improving neighbor and apply it at the end.
/// First improvement: apply the first improving neighbor immediately.
/// Returns false when the pass found no improvement (local minimum).
bool descent_pass(const Problem& problem, ga::Chromosome& chromosome,
                  std::vector<double>& load, double& makespan,
                  bool first_improvement) {
  const std::size_t machines = problem.num_machines();
  const std::size_t n = chromosome.size();
  double best_span = makespan;
  bool is_swap = false;
  std::size_t best_i = 0;
  std::size_t best_j = 0;  // target slot for a move, second task for a swap
  bool found = false;

  const auto apply_move = [&](std::size_t i, std::size_t to) {
    const auto task = problem.tasks()[i];
    const std::size_t from = chromosome.genes()[i];
    load[from] -= problem.etc_at(task, from);
    load[to] += problem.etc_at(task, to);
    chromosome.genes()[i] = static_cast<std::uint32_t>(to);
  };
  const auto apply_swap = [&](std::size_t i, std::size_t j) {
    const std::size_t a = chromosome.genes()[i];
    const std::size_t b = chromosome.genes()[j];
    apply_move(i, b);
    apply_move(j, a);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const auto task = problem.tasks()[i];
    const std::size_t from = chromosome.genes()[i];
    const double etc_from = problem.etc_at(task, from);
    for (std::size_t to = 0; to < machines; ++to) {
      if (to == from) continue;
      const double span =
          span_with(load, from, load[from] - etc_from, to,
                    load[to] + problem.etc_at(task, to));
      if (span < best_span - 1e-12) {
        if (first_improvement) {
          apply_move(i, to);
          makespan = span;
          return true;
        }
        best_span = span;
        is_swap = false;
        best_i = i;
        best_j = to;
        found = true;
      }
    }
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t a = chromosome.genes()[i];
    const double etc_ia = problem.etc_at(problem.tasks()[i], a);
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t b = chromosome.genes()[j];
      if (a == b) continue;  // same machine: swapping changes nothing
      const double new_a =
          load[a] - etc_ia + problem.etc_at(problem.tasks()[j], a);
      const double new_b = load[b] - problem.etc_at(problem.tasks()[j], b) +
                           problem.etc_at(problem.tasks()[i], b);
      const double span = span_with(load, a, new_a, b, new_b);
      if (span < best_span - 1e-12) {
        if (first_improvement) {
          apply_swap(i, j);
          makespan = span;
          return true;
        }
        best_span = span;
        is_swap = true;
        best_i = i;
        best_j = j;
        found = true;
      }
    }
  }
  if (!found) return false;
  if (is_swap) {
    apply_swap(best_i, best_j);
  } else {
    apply_move(best_i, best_j);
  }
  makespan = best_span;
  return true;
}

/// Descend to a local minimum; polls cancellation between passes so the
/// anytime contract holds. Returns the number of neighbors applied.
std::size_t descend(const Problem& problem, ga::Chromosome& chromosome,
                    std::vector<double>& load, double& makespan,
                    bool first_improvement) {
  std::size_t steps = 0;
  while (descent_pass(problem, chromosome, load, makespan,
                      first_improvement)) {
    ++steps;
    if (core::cancellation_requested()) break;
  }
  return steps;
}

}  // namespace

LocalSearch::LocalSearch(LocalSearchConfig config) : config_(config) {}

Schedule LocalSearch::do_map(const Problem& problem, TieBreaker& ties) const {
  return do_map_seeded(problem, ties, nullptr);
}

Schedule LocalSearch::do_map_seeded(const Problem& problem, TieBreaker& ties,
                                    const Schedule* seed) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("Local-Search: no machines");
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

  const std::size_t n = current.size();
  const std::size_t machines = problem.num_machines();
  std::vector<double> load = loads_of(problem, current);
  double span = current.evaluate(problem);
  std::size_t steps =
      descend(problem, current, load, span, config_.first_improvement);

  ga::Chromosome best = current;
  double best_span = span;

  std::size_t restarts = 0;
  if (machines >= 2 && n > 0) {
    const std::size_t disrupted = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(config_.disruption * static_cast<double>(n))));
    for (std::size_t restart = 0; restart < config_.max_restarts; ++restart) {
      if (core::cancellation_requested()) break;
      // Random disruption of the best-so-far local minimum.
      current = best;
      for (std::size_t d = 0; d < disrupted; ++d) {
        const std::size_t task = static_cast<std::size_t>(rng.below(n));
        current.genes()[task] =
            static_cast<std::uint32_t>(rng.below(machines));
      }
      ++restarts;
      load = loads_of(problem, current);
      span = current.evaluate(problem);
      steps += descend(problem, current, load, span,
                       config_.first_improvement);
      if (span < best_span - 1e-12) {
        best = current;
        best_span = span;
      }
    }
  }

  HCSCHED_COUNT(obs::Counter::kLocalSearchSteps, steps);
  HCSCHED_COUNT(obs::Counter::kLocalSearchRestarts, restarts);
  (void)ties;  // stochastic decisions come from the private seeded stream
  return best.decode(problem);
}

}  // namespace hcsched::heuristics
