// Chromosome: one candidate mapping for Genitor (paper §3.1, Figure 1).
//
// genes[i] is the machine *slot* (position in Problem::machines()) assigned
// to the i-th task of Problem::tasks(). Slots rather than machine ids keep
// chromosomes valid as the iterative technique shrinks the machine set: a
// fresh chromosome is always expressed against the current problem.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"
#include "sched/etc_view.hpp"
#include "sched/schedule.hpp"

namespace hcsched::ga {

using sched::Problem;
using sched::Schedule;

class Chromosome {
 public:
  Chromosome() = default;
  explicit Chromosome(std::vector<std::uint32_t> genes)
      : genes_(std::move(genes)) {}

  /// Uniformly random mapping.
  static Chromosome random(const Problem& problem, rng::Rng& rng);

  /// Chromosome encoding an existing schedule of the same problem.
  static Chromosome from_schedule(const Problem& problem, const Schedule& s);

  const std::vector<std::uint32_t>& genes() const noexcept { return genes_; }
  std::vector<std::uint32_t>& genes() noexcept { return genes_; }
  std::size_t size() const noexcept { return genes_.size(); }

  /// Materializes the mapping as a Schedule (tasks assigned in list order).
  Schedule decode(const Problem& problem) const;

  bool operator==(const Chromosome&) const = default;

 private:
  std::vector<std::uint32_t> genes_{};
};

/// The load fold of every mapping search, over the problem's ETC rows
/// gathered once (sched::EtcView). A slot's load is its initial ready time
/// plus its tasks' ETCs added in task order, as in the decoded Schedule,
/// bit for bit.
class Evaluator {
 public:
  explicit Evaluator(const Problem& problem)
      : etc_(problem), initial_(problem.initial_ready_times()) {}

  /// problem.etc_at(problem.tasks()[i], slot).
  double etc(std::size_t i, std::size_t slot) const noexcept {
    return etc_.row(i)[slot];
  }

  /// Load of every slot under `genes`, in a buffer reused by the next call.
  const std::vector<double>& loads(std::span<const std::uint32_t> genes);

  /// Makespan of `genes`: the largest of loads(genes).
  double makespan(std::span<const std::uint32_t> genes);

 private:
  sched::EtcView etc_;
  std::vector<double> initial_;
  std::vector<double> ready_;
};

}  // namespace hcsched::ga
