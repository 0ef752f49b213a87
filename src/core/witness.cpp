#include "core/witness.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"

namespace hcsched::core {

etc::EtcMatrix sample_matrix(const WitnessSpec& spec, rng::Rng& rng) {
  const std::size_t cells =
      etc::EtcMatrix::cell_count(spec.num_tasks, spec.num_machines);
  std::vector<double> values;
  values.reserve(cells);
  const int steps = spec.max_etc - spec.min_etc;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    double v = static_cast<double>(
        rng.between(0, static_cast<std::int64_t>(steps)) + spec.min_etc);
    if (spec.half_integers && rng.chance(0.25)) v += 0.5;
    values.push_back(v);
  }
  return etc::EtcMatrix::from_values(spec.num_tasks, spec.num_machines,
                                     std::move(values));
}

std::optional<IterativeResult> try_matrix(
    const heuristics::Heuristic& heuristic, const etc::EtcMatrix& matrix,
    const WitnessSpec& spec, rng::Rng& rng) {
  const Problem problem = Problem::full(matrix);
  IterativeMinimizer minimizer{IterativeOptions{.use_seeding = false}};
  IterativeResult result = [&] {
    if (spec.policy == rng::TiePolicy::kRandom) {
      TieBreaker ties(rng);
      return minimizer.run(heuristic, problem, ties);
    }
    TieBreaker ties;
    return minimizer.run(heuristic, problem, ties);
  }();
  if (result.final_makespan() >
      result.original().makespan + spec.min_increase) {
    return result;
  }
  return std::nullopt;
}

std::optional<Witness> find_makespan_increase_witness(
    const heuristics::Heuristic& heuristic, const WitnessSpec& spec,
    rng::Rng& rng, std::size_t max_trials) {
  for (std::size_t trial = 1; trial <= max_trials; ++trial) {
    // The matrix must outlive the result (schedules reference it), so pin it
    // on the heap before running against it.
    Witness w;
    w.matrix =
        std::make_shared<const etc::EtcMatrix>(sample_matrix(spec, rng));
    auto result = try_matrix(heuristic, *w.matrix, spec, rng);
    if (result.has_value()) {
      w.result = *std::move(result);
      w.original_makespan = w.result.original().makespan;
      w.final_makespan = w.result.final_makespan();
      w.trials_used = trial;
      return w;
    }
  }
  return std::nullopt;
}

std::optional<Witness> find_makespan_increase_witness_parallel(
    const heuristics::Heuristic& heuristic, const WitnessSpec& spec,
    std::uint64_t seed, sim::ThreadPool& pool, std::size_t max_trials) {
  // Fixed-size blocks, one RNG stream per block: the winning (lowest-index)
  // block is independent of how blocks land on threads.
  constexpr std::size_t kBlock = 512;
  const std::size_t blocks = (max_trials + kBlock - 1) / kBlock;

  struct Hit {
    std::size_t block = 0;
    std::size_t trial_in_block = 0;
    std::shared_ptr<const etc::EtcMatrix> matrix{};
    IterativeResult result{};
  };
  // Shared search state as one annotated bundle: workers may only touch the
  // hit table or the cutoff while holding the capability, which the
  // thread-safety analysis proves for every path through the lambda below.
  struct SearchState {
    explicit SearchState(std::size_t blocks)
        : hits(blocks), best_block(blocks) {}
    Mutex mutex;
    std::vector<std::optional<Hit>> hits HCSCHED_GUARDED_BY(mutex);
    std::size_t best_block HCSCHED_GUARDED_BY(mutex);  // >= this cannot win
  };
  SearchState state(blocks);

  pool.parallel_for_chunks(blocks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; ++b) {
      {
        const MutexLock lock(state.mutex);
        if (b >= state.best_block) continue;  // a lower block already hit
      }
      rng::Rng rng = rng::Rng(seed).split(b);
      const std::size_t count =
          std::min(kBlock, max_trials - b * kBlock);
      for (std::size_t i = 0; i < count; ++i) {
        auto matrix =
            std::make_shared<const etc::EtcMatrix>(sample_matrix(spec, rng));
        auto result = try_matrix(heuristic, *matrix, spec, rng);
        if (result.has_value()) {
          const MutexLock lock(state.mutex);
          state.hits[b] = Hit{b, i, std::move(matrix), *std::move(result)};
          state.best_block = std::min(state.best_block, b);
          break;
        }
      }
    }
  });

  // Workers have drained (parallel_for_chunks is a barrier), so this read
  // is single-threaded; the lock keeps the analysis airtight and is
  // uncontended.
  const MutexLock lock(state.mutex);
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!state.hits[b].has_value()) continue;
    Witness w;
    w.matrix = state.hits[b]->matrix;
    w.result = std::move(state.hits[b]->result);
    w.original_makespan = w.result.original().makespan;
    w.final_makespan = w.result.final_makespan();
    w.trials_used = b * kBlock + state.hits[b]->trial_in_block + 1;
    return w;
  }
  return std::nullopt;
}

double makespan_increase_rate(const heuristics::Heuristic& heuristic,
                              const WitnessSpec& spec, rng::Rng& rng,
                              std::size_t trials) {
  if (trials == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const etc::EtcMatrix matrix = sample_matrix(spec, rng);
    if (try_matrix(heuristic, matrix, spec, rng).has_value()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace hcsched::core
