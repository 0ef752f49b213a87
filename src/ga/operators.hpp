// Genetic operators (paper Figure 1, steps 3a and 3b) and Genitor's ranked
// steady-state population.
//
// Crossover: a random cut point is generated and the machine assignments of
// the tasks below the cut are exchanged between the two parents, producing
// two offspring. Mutation: a random task's machine assignment is replaced by
// a uniformly random machine slot. Parent selection uses Whitley's
// linear-rank bias, the core idea of the Genitor paper [17].
//
// Both operators report whether they changed a gene. An offspring that did
// not change is a copy of its parent, so Genitor gives it the parent's
// makespan instead of folding its genes again.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace hcsched::ga {

/// Single-point crossover, in place: the two parents' genes become the two
/// offspring. The cut is drawn from [1, n-1] so both offspring mix genes
/// from both parents (for n < 2 nothing is drawn or exchanged). Returns
/// whether any gene changed: false when the parents agree below the cut,
/// so each offspring is a copy of its own parent.
bool crossover(std::span<std::uint32_t> a, std::span<std::uint32_t> b,
               rng::Rng& rng);

/// In-place point mutation; returns the index of the changed gene, or npos
/// when none changed (an empty chromosome, or a redraw of the gene's own
/// slot). The gene and slot are drawn either way.
std::size_t mutate(std::span<std::uint32_t> genes,
                   std::size_t num_machine_slots, rng::Rng& rng);

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// A member's makespan and gene-pool row; trivially copyable, so shifting a
/// Ranking is a memmove.
struct Ranked {
  double makespan;
  std::uint32_t row;
};

/// Genitor's steady-state population: at most `capacity` members sorted
/// ascending by makespan (rank 0 is the best). The members are a window of
/// a flat buffer with `capacity` spare entries on each side, so an insert
/// shifts only the shorter side of the window with one memmove; the window
/// is re-centred only when that side runs out of room. Nothing allocates
/// after construction.
class Ranking {
 public:
  explicit Ranking(std::size_t capacity);

  std::size_t size() const noexcept { return size_; }
  const Ranked& operator[](std::size_t rank) const noexcept {
    return buffer_[first_ + rank];
  }
  const Ranked& front() const noexcept { return buffer_[first_]; }
  const Ranked* begin() const noexcept { return buffer_.data() + first_; }
  const Ranked* end() const noexcept { return begin() + size_; }

  /// Steady-state replacement: inserts `row` before every member of equal
  /// makespan. A full ranking first drops its last member, or rejects a
  /// newcomer worse than it; the row that leaves is pushed onto
  /// `free_rows`.
  void insert(double makespan, std::uint32_t row,
              std::vector<std::uint32_t>& free_rows);

 private:
  std::vector<Ranked> buffer_;
  std::size_t capacity_;
  std::size_t first_;  // buffer index of rank 0
  std::size_t size_ = 0;
};

/// Rank-biased parent index in [0, size) (0 = best); `bias` in [1, 2] runs
/// from uniform (1) to the strongest preference for good ranks (2).
std::size_t select_rank(std::size_t size, double bias, rng::Rng& rng);

}  // namespace hcsched::ga
