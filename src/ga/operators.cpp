#include "ga/operators.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hcsched::ga {

bool crossover(std::span<std::uint32_t> a, std::span<std::uint32_t> b,
               rng::Rng& rng) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("crossover: parent size mismatch");
  }
  const std::size_t n = a.size();
  if (n < 2) return false;
  const auto cut = static_cast<std::ptrdiff_t>(
      1 + rng.below(static_cast<std::uint64_t>(n - 1)));
  if (std::equal(a.begin(), a.begin() + cut, b.begin())) return false;
  std::swap_ranges(a.begin(), a.begin() + cut, b.begin());
  return true;
}

std::size_t mutate(std::span<std::uint32_t> genes,
                   std::size_t num_machine_slots, rng::Rng& rng) {
  if (genes.empty() || num_machine_slots == 0) return kNpos;
  const auto gene = static_cast<std::size_t>(rng.below(genes.size()));
  const auto slot = static_cast<std::uint32_t>(rng.below(num_machine_slots));
  if (genes[gene] == slot) return kNpos;
  genes[gene] = slot;
  return gene;
}

Ranking::Ranking(std::size_t capacity)
    : buffer_(3 * capacity), capacity_(capacity), first_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("Ranking: capacity must be >= 1");
  }
}

void Ranking::insert(double makespan, std::uint32_t row,
                     std::vector<std::uint32_t>& free_rows) {
  if (size_ >= capacity_) {
    const Ranked& last = buffer_[first_ + size_ - 1];
    if (makespan > last.makespan) {
      free_rows.push_back(row);
      return;
    }
    free_rows.push_back(last.row);
    --size_;
  }
  // Rank of the newcomer: before every equal makespan. In a converged
  // population most newcomers tie the best member, so test that first.
  std::size_t rank = 0;
  if (size_ != 0 && makespan > front().makespan) {
    rank = static_cast<std::size_t>(
        std::lower_bound(begin() + 1, end(), makespan,
                         [](const Ranked& member, double m) {
                           return member.makespan < m;
                         }) -
        begin());
  }
  // Shift the shorter side of the window by one entry, re-centring the
  // window first when that side has no spare entry left.
  const bool shift_front = rank < size_ - rank;
  if (shift_front ? first_ == 0 : first_ + size_ == buffer_.size()) {
    const std::size_t centred = (buffer_.size() - size_) / 2;
    std::memmove(buffer_.data() + centred, buffer_.data() + first_,
                 size_ * sizeof(Ranked));
    first_ = centred;
  }
  Ranked* const base = buffer_.data() + first_;
  if (shift_front) {
    std::memmove(base - 1, base, rank * sizeof(Ranked));
    --first_;
  } else {
    std::memmove(base + rank + 1, base + rank, (size_ - rank) * sizeof(Ranked));
  }
  buffer_[first_ + rank] = Ranked{makespan, row};
  ++size_;
}

std::size_t select_rank(std::size_t size, double bias, rng::Rng& rng) {
  if (size == 0) {
    throw std::logic_error("select_rank: empty population");
  }
  const double u = rng.uniform01();
  double index = u * static_cast<double>(size);
  if (bias > 1.0) {
    // Whitley (1989): rank = n * (bias - sqrt(bias^2 - 4(bias-1)u)) /
    //                        (2 (bias - 1))
    const double disc = bias * bias - 4.0 * (bias - 1.0) * u;
    index = static_cast<double>(size) * (bias - std::sqrt(disc)) /
            (2.0 * (bias - 1.0));
  }
  return std::min(static_cast<std::size_t>(index), size - 1);
}

}  // namespace hcsched::ga
