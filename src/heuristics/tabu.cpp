#include "heuristics/tabu.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cancel.hpp"
#include "heuristics/minmin.hpp"

namespace hcsched::heuristics {

namespace {

/// Best single-task reassignment; returns false at a local minimum.
/// Evaluates moves incrementally: moving task i from slot a to slot b only
/// changes those two machines' loads, so each move is O(1) given the
/// per-slot load vector. A move must beat the makespan by more than
/// `margin`.
bool best_short_hop(const ga::Evaluator& evaluator, ga::Chromosome& chromosome,
                    std::vector<double>& load, double& makespan,
                    double margin) {
  const std::size_t machines = load.size();
  double best_span = makespan;
  std::size_t best_task = 0;
  std::size_t best_slot = 0;
  bool found = false;

  for (std::size_t i = 0; i < chromosome.size(); ++i) {
    const std::size_t from = chromosome.genes()[i];
    const double etc_from = evaluator.etc(i, from);
    for (std::size_t to = 0; to < machines; ++to) {
      if (to == from) continue;
      const double etc_to = evaluator.etc(i, to);
      const double new_from = load[from] - etc_from;
      const double new_to = load[to] + etc_to;
      // New makespan: max over unchanged machines and the two moved ones.
      double span = std::max(new_from, new_to);
      for (std::size_t m = 0; m < machines; ++m) {
        if (m != from && m != to && load[m] > span) span = load[m];
      }
      if (span < best_span - margin) {
        best_span = span;
        best_task = i;
        best_slot = to;
        found = true;
      }
    }
  }
  if (!found) return false;
  const std::size_t from = chromosome.genes()[best_task];
  load[from] -= evaluator.etc(best_task, from);
  load[best_slot] += evaluator.etc(best_task, best_slot);
  chromosome.genes()[best_task] = static_cast<std::uint32_t>(best_slot);
  makespan = best_span;
  return true;
}

}  // namespace

std::size_t hamming_distance(const ga::Chromosome& a,
                             const ga::Chromosome& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("hamming_distance: size mismatch");
  }
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.genes()[i] != b.genes()[i]) ++d;
  }
  return d;
}

TabuSearch::TabuSearch(TabuConfig config) : config_(config) {}

Schedule TabuSearch::do_map(const Problem& problem, TieBreaker& ties) const {
  return do_map_seeded(problem, ties, nullptr);
}

Schedule TabuSearch::do_map_seeded(const Problem& problem, TieBreaker& ties,
                                const Schedule* seed) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("Tabu: no machines");
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
  std::vector<ga::Chromosome> tabu;
  ga::Chromosome best = current;
  double best_span = evaluator.makespan(current.genes());
  // Improvement margin relative to the initial makespan, so the search is
  // scale-free.
  const double margin = 1e-12 * best_span;

  const std::size_t min_distance = std::max<std::size_t>(1, current.size() / 2);
  for (std::size_t hop = 0; hop <= config_.max_long_hops; ++hop) {
    // Anytime contract: stop between hops (and between short-hop descents)
    // once a budget is cancelled; `best` stays a complete mapping.
    if (core::cancellation_requested()) break;
    // Short-hop descent to a local minimum.
    std::vector<double> load = evaluator.loads(current.genes());
    double span = *std::max_element(load.begin(), load.end());
    while (best_short_hop(evaluator, current, load, span, margin)) {
      if (core::cancellation_requested()) break;
    }
    if (span < best_span) {
      best = current;
      best_span = span;
    }
    tabu.push_back(current);

    if (hop == config_.max_long_hops || problem.num_machines() < 2 ||
        current.size() == 0) {
      break;
    }
    // Long hop: a random mapping far from every tabu entry.
    bool hopped = false;
    for (std::size_t attempt = 0; attempt < config_.long_hop_attempts;
         ++attempt) {
      ga::Chromosome candidate = ga::Chromosome::random(problem, rng);
      bool far = true;
      for (const auto& t : tabu) {
        if (hamming_distance(candidate, t) < min_distance) {
          far = false;
          break;
        }
      }
      if (far) {
        current = std::move(candidate);
        hopped = true;
        break;
      }
    }
    if (!hopped) break;  // search space exhausted around the tabu regions
  }

  (void)ties;  // Tabu's stochastic decisions come from its own stream.
  return best.decode(problem);
}

}  // namespace hcsched::heuristics
