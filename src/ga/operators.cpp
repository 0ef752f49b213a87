#include "ga/operators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcsched::ga {

void crossover(std::span<std::uint32_t> a, std::span<std::uint32_t> b,
               rng::Rng& rng) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("crossover: parent size mismatch");
  }
  const std::size_t n = a.size();
  if (n < 2) return;
  const auto cut =
      1 + static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n - 1)));
  std::swap_ranges(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(cut),
                   b.begin());
}

std::size_t mutate(std::span<std::uint32_t> genes,
                   std::size_t num_machine_slots, rng::Rng& rng) {
  if (genes.empty() || num_machine_slots == 0) return kNpos;
  const auto gene = static_cast<std::size_t>(rng.below(genes.size()));
  genes[gene] = static_cast<std::uint32_t>(rng.below(num_machine_slots));
  return gene;
}

void rank_insert(Ranking& ranking, std::size_t capacity, double makespan,
                 std::uint32_t row, std::vector<std::uint32_t>& free_rows) {
  if (ranking.size() >= capacity) {
    if (makespan > ranking.back().makespan) {
      free_rows.push_back(row);
      return;
    }
    free_rows.push_back(ranking.back().row);
    ranking.pop_back();
  }
  const auto pos = std::lower_bound(
      ranking.begin(), ranking.end(), makespan,
      [](const Ranked& member, double m) { return member.makespan < m; });
  ranking.insert(pos, {makespan, row});
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
