#include "ga/genitor.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "core/cancel.hpp"
#include "core/check.hpp"
#include "ga/operators.hpp"
#include "heuristics/minmin.hpp"
#include "obs/counters.hpp"

namespace hcsched::ga {

Genitor::Genitor(GenitorConfig config) : config_(config) {
  if (config_.population_size < 2) {
    throw std::invalid_argument("Genitor: population_size must be >= 2");
  }
  if (!(config_.selection_bias >= 1.0 && config_.selection_bias <= 2.0)) {
    throw std::invalid_argument("Genitor: selection_bias must be in [1, 2]");
  }
}

Schedule Genitor::do_map(const Problem& problem,
                      heuristics::TieBreaker& ties) const {
  return do_map_seeded(problem, ties, nullptr);
}

Schedule Genitor::do_map_seeded(const Problem& problem,
                             heuristics::TieBreaker& ties,
                             const Schedule* seed) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("Genitor: no machines");
  }
  rng::Rng rng(config_.seed);
  Evaluator evaluator(problem);
  const std::size_t tasks = problem.num_tasks();
  const std::size_t machines = problem.num_machines();
  const std::size_t capacity = config_.population_size;

  // Gene pool: row r holds genes [r*T, (r+1)*T). Rows are the members' plus
  // the two offspring written before either is inserted; rows outside the
  // ranking are free, and claim_row copies genes (possibly none) into one.
  std::vector<std::uint32_t> pool((capacity + 2) * tasks);
  std::vector<std::uint32_t> free_rows(capacity + 2);
  std::iota(free_rows.rbegin(), free_rows.rend(), 0U);
  const auto row = [&](std::uint32_t r) {
    return std::span<std::uint32_t>(pool).subspan(r * tasks, tasks);
  };
  const auto claim_row = [&](std::span<const std::uint32_t> genes) {
    const std::uint32_t r = free_rows.back();
    free_rows.pop_back();
    std::copy(genes.begin(), genes.end(), row(r).begin());
    return r;
  };
  Ranking ranking(capacity);
  last_run_ = RunStats{};
  const auto insert = [&](std::uint32_t r) {
    ++last_run_.evaluations;
    ranking.insert(evaluator.makespan(row(r)), r, free_rows);
  };
  // An offspring that no operator changed is a copy of its parent, and a
  // copy's fold adds the same values in the same order: its makespan is the
  // parent's, bit for bit.
  const auto inherit = [&](std::uint32_t r, const Ranked& parent) {
    HCSCHED_INVARIANT(std::bit_cast<std::uint64_t>(
                          evaluator.makespan(row(r))) ==
                          std::bit_cast<std::uint64_t>(parent.makespan),
                      "row ", r, " inherits makespan ", parent.makespan,
                      " but folds to ", evaluator.makespan(row(r)));
    ++last_run_.inherited;
    ranking.insert(parent.makespan, r, free_rows);
  };
  const auto select = [&] {
    return ranking[select_rank(ranking.size(), config_.selection_bias, rng)];
  };

  if (seed != nullptr) {
    insert(claim_row(Chromosome::from_schedule(problem, *seed).genes()));
  }
  if (config_.seed_with_minmin) {
    heuristics::MinMin minmin;
    rng::TieBreaker det;  // deterministic ties for the seed mapping
    insert(claim_row(
        Chromosome::from_schedule(problem, minmin.map(problem, det)).genes()));
  }
  while (ranking.size() < capacity) {
    const std::uint32_t r = claim_row({});
    for (auto& g : row(r)) g = static_cast<std::uint32_t>(rng.below(machines));
    insert(r);
  }

  last_run_.initial_best = ranking.front().makespan;

  double best = ranking.front().makespan;
  std::size_t stale = 0;
  for (std::size_t step = 0; step < config_.total_steps; ++step) {
    // Anytime contract: a cancelled budget stops evolution within one
    // steady-state step; the population's best is always a complete mapping.
    if (core::cancellation_requested()) break;
    ++last_run_.steps_executed;
    HCSCHED_COUNT(obs::Counter::kGaSteps);
    // Crossover trial (Figure 1, step 3a). Both offspring are written before
    // either is inserted: the first insert may evict a parent's row.
    HCSCHED_COUNT(obs::Counter::kGaCrossovers);
    const Ranked pa = select();
    const std::uint32_t oa = claim_row(row(pa.row));
    const Ranked pb = select();
    const std::uint32_t ob = claim_row(row(pb.row));
    if (crossover(row(oa), row(ob), rng)) {
      insert(oa);
      insert(ob);
    } else {
      inherit(oa, pa);
      inherit(ob, pb);
    }

    // Mutation trial (Figure 1, step 3b).
    HCSCHED_COUNT(obs::Counter::kGaMutations);
    const Ranked parent = select();
    const std::uint32_t mutant = claim_row(row(parent.row));
    if (mutate(row(mutant), machines, rng) != kNpos) {
      insert(mutant);
    } else {
      inherit(mutant, parent);
    }

    if (ranking.front().makespan < best) {
      best = ranking.front().makespan;
      ++last_run_.improvements;
      stale = 0;
    } else if (config_.stop_after_stale != 0 &&
               ++stale >= config_.stop_after_stale) {
      break;
    }
  }
  last_run_.final_best = ranking.front().makespan;

  (void)ties;  // Genitor's stochastic decisions come from its own stream.
  const auto genes = row(ranking.front().row);
  return Chromosome(std::vector<std::uint32_t>(genes.begin(), genes.end()))
      .decode(problem);
}

}  // namespace hcsched::ga
