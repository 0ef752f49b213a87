// Genetic operators (paper Figure 1, steps 3a and 3b) and Genitor's ranked
// steady-state population.
//
// Crossover: a random cut point is generated and the machine assignments of
// the tasks below the cut are exchanged between the two parents, producing
// two offspring. Mutation: a random task's machine assignment is replaced by
// a uniformly random machine slot. Parent selection uses Whitley's
// linear-rank bias, the core idea of the Genitor paper [17].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace hcsched::ga {

/// Single-point crossover, in place: the two parents' genes become the two
/// offspring. The cut is drawn from [1, n-1] so both offspring mix genes
/// from both parents (for n < 2 nothing is drawn or exchanged).
void crossover(std::span<std::uint32_t> a, std::span<std::uint32_t> b,
               rng::Rng& rng);

/// In-place point mutation; returns the index of the mutated gene (or npos
/// for an empty chromosome).
std::size_t mutate(std::span<std::uint32_t> genes,
                   std::size_t num_machine_slots, rng::Rng& rng);

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// A member's makespan and gene-pool row; trivially copyable, so shifting a
/// Ranking is a memmove.
struct Ranked {
  double makespan;
  std::uint32_t row;
};

/// Members sorted ascending by makespan (rank 0 is the best).
using Ranking = std::vector<Ranked>;

/// Steady-state replacement: inserts `row` before every member of equal
/// makespan. A full ranking (`capacity` members) first drops its last
/// member, or rejects a newcomer worse than it; the row that leaves is
/// pushed onto `free_rows`.
void rank_insert(Ranking& ranking, std::size_t capacity, double makespan,
                 std::uint32_t row, std::vector<std::uint32_t>& free_rows);

/// Rank-biased parent index in [0, size) (0 = best); `bias` in [1, 2] runs
/// from uniform (1) to the strongest preference for good ranks (2).
std::size_t select_rank(std::size_t size, double bias, rng::Rng& rng);

}  // namespace hcsched::ga
