#include "ga/chromosome.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hcsched::ga {

Chromosome Chromosome::random(const Problem& problem, rng::Rng& rng) {
  std::vector<std::uint32_t> genes(problem.num_tasks());
  for (auto& g : genes) {
    g = static_cast<std::uint32_t>(rng.below(problem.num_machines()));
  }
  return Chromosome(std::move(genes));
}

Chromosome Chromosome::from_schedule(const Problem& problem,
                                     const Schedule& s) {
  std::vector<std::uint32_t> genes(problem.num_tasks());
  for (std::size_t i = 0; i < problem.num_tasks(); ++i) {
    const auto machine = s.machine_of(problem.tasks()[i]);
    if (!machine.has_value()) {
      throw std::invalid_argument(
          "Chromosome::from_schedule: schedule does not map task " +
          std::to_string(problem.tasks()[i]));
    }
    const std::size_t slot = problem.slot_of(*machine);
    if (slot == Problem::npos) {
      throw std::invalid_argument(
          "Chromosome::from_schedule: machine not in problem");
    }
    genes[i] = static_cast<std::uint32_t>(slot);
  }
  return Chromosome(std::move(genes));
}

Schedule Chromosome::decode(const Problem& problem) const {
  if (genes_.size() != problem.num_tasks()) {
    throw std::invalid_argument("Chromosome::decode: gene count mismatch");
  }
  Schedule s(problem);
  for (std::size_t i = 0; i < genes_.size(); ++i) {
    s.assign(problem.tasks()[i], problem.machines()[genes_[i]]);
  }
  return s;
}

const std::vector<double>& Evaluator::loads(
    std::span<const std::uint32_t> genes) {
  if (genes.size() != etc_.num_tasks()) {
    throw std::invalid_argument("Evaluator: gene count mismatch");
  }
  ready_ = initial_;
  for (std::size_t i = 0; i < genes.size(); ++i) {
    ready_[genes[i]] += etc_.row(i)[genes[i]];
  }
  return ready_;
}

double Evaluator::makespan(std::span<const std::uint32_t> genes) {
  const std::vector<double>& ready = loads(genes);
  return ready.empty() ? 0.0 : *std::max_element(ready.begin(), ready.end());
}

}  // namespace hcsched::ga
