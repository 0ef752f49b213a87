// Seeded wrapper — the paper's §5 proposal, implemented.
//
// "Implementing a form of seeding similar to Genitor's seeding to other
//  heuristics would guarantee that a heuristic can never increase makespan
//  from one iteration to the next. This would cause the best solutions to
//  be preserved across iterations, thus changing the mapping only if a
//  better mapping is found." — paper §5.
//
// Seeded<H> runs the inner heuristic and, when the iterative technique
// supplies the previous iteration's mapping as a seed, returns whichever of
// {inner result, incumbent} has the smaller makespan, where the incumbent is
// the seed restricted to the problem (the seed wins ties, preserving the
// incumbent exactly as Genitor's rank insertion does). This
// makes the iterative technique monotone for ANY inner heuristic — verified
// as a property test over every registered heuristic in test_seeded.cpp and
// quantified by bench_seeding_ablation.
//
// Seeded is a wrapper combinator constructed around an inner heuristic, not
// a heuristic with its own name-based registry entry:
// hcsched-lint: allow(heuristic-registry)
#pragma once

#include <memory>
#include <string>

#include "heuristics/heuristic.hpp"

namespace hcsched::heuristics {

class Seeded final : public Heuristic {
 public:
  /// Takes ownership of the inner heuristic.
  explicit Seeded(std::unique_ptr<Heuristic> inner);

  /// Reported as "Seeded<inner-name>".
  std::string_view name() const noexcept override { return name_; }

  Schedule do_map(const Problem& problem, TieBreaker& ties) const override;
  Schedule do_map_seeded(const Problem& problem, TieBreaker& ties,
                      const Schedule* seed) const override;

  bool deterministic_given_ties() const noexcept override {
    return inner_->deterministic_given_ties();
  }

  const Heuristic& inner() const noexcept { return *inner_; }

 private:
  std::unique_ptr<Heuristic> inner_;
  std::string name_;
};

/// Convenience: wrap a registry heuristic by name.
std::unique_ptr<Heuristic> make_seeded(std::string_view inner_name);

}  // namespace hcsched::heuristics
