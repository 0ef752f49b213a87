#include "heuristics/seeded.hpp"

#include <stdexcept>
#include <utility>

#include "core/check.hpp"

namespace hcsched::heuristics {

Seeded::Seeded(std::unique_ptr<Heuristic> inner) : inner_(std::move(inner)) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("Seeded: inner heuristic required");
  }
  name_ = "Seeded<";
  name_ += inner_->name();
  name_ += '>';
}

Schedule Seeded::do_map(const Problem& problem, TieBreaker& ties) const {
  return inner_->map_seeded(problem, ties, nullptr);
}

Schedule Seeded::do_map_seeded(const Problem& problem, TieBreaker& ties,
                            const Schedule* seed) const {
  if (seed == nullptr) return inner_->map_seeded(problem, ties, nullptr);
  // The seed may map more than `problem` (the whole previous iteration);
  // its makespan only counts over the problem's tasks and machines.
  Schedule incumbent = sched::restrict_schedule(*seed, problem);
  Schedule fresh = inner_->map_seeded(problem, ties, &incumbent);
  // The incumbent wins ties — the mapping changes only when strictly
  // better, exactly the preservation argument of paper §5.
  const double bound = incumbent.makespan();
  Schedule out = fresh.makespan() < bound ? std::move(fresh)
                                          : std::move(incumbent);
  // §5 monotonicity guarantee: keeping the incumbent as a candidate bounds
  // the result by the incumbent's makespan in every case.
  HCSCHED_INVARIANT(out.makespan() <= bound, "seeded result makespan ",
                    out.makespan(), " exceeds incumbent ", bound);
  return out;
}

}  // namespace hcsched::heuristics
