// Differential harness: one seeded reference-vs-kernel comparison.
//
// Shared between tests/test_fastpath_differential.cpp (the ctest suite) and
// tests/fastpath_fuzz.cpp (the env-driven seed-sweep runner), so a CI
// widening of the fuzz range exercises byte-for-byte the same checks the
// unit suite pins. A case is fully described by a seed plus the knobs
// below; describe() prints a one-line repro. The heuristic under test is a
// row of the fastpath dispatch table (fastpath.hpp kernel_table()) — the
// suite and the fuzzer enumerate the table, so a new kernel is in the
// matrix the moment it is registered.
#pragma once

#include <cstdint>
#include <string>

#include "etc/consistency.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "rng/tie_break.hpp"

namespace hcsched::heuristics::fastpath {

struct DifferentialCase {
  std::uint64_t seed = 1;
  std::size_t tasks = 16;
  std::size_t machines = 4;
  etc::Consistency consistency = etc::Consistency::kInconsistent;
  rng::TiePolicy policy = rng::TiePolicy::kDeterministic;
  Kernel kernel = Kernel::kMinMin;  ///< dispatch-table row under test
  /// Map a task/machine subset with nonzero initial ready times (derived
  /// deterministically from the seed) instead of the full problem.
  bool subset = false;
  /// Compare full IterativeMinimizer::run outcomes (every iteration's
  /// mapping across cut points, fastpath off vs on) instead of one mapping.
  bool iterative = false;
  /// Round every ETC cell (and, for subset cases, every initial ready
  /// time) to an integer of at least 1, so exact ties are common in every
  /// phase of every heuristic. CVB draws are continuous and almost never
  /// tie exactly on their own, whatever the mean.
  bool integer_cells = false;
  /// With integer_cells, add 0, 0.6e-9 or 1.2e-9 to every ETC cell: near
  /// values form chains a ~ b ~ c whose ends are 1.2e-9 apart, which a tie
  /// tolerance of 1e-9 would tie pairwise but not end to end.
  bool near_tie_offsets = false;
  double mean_task_time = 100.0;
  double v_task = 0.6;
  double v_machine = 0.6;
};

struct DifferentialOutcome {
  bool equivalent = false;
  /// Empty when equivalent; otherwise the first divergence found.
  std::string divergence{};
  /// etc_cell_evaluations each path charged (0 when HCSCHED_TRACE is off or
  /// when other threads are concurrently counting; also 0 for iterative
  /// cases, where the NVI instrumentation charges both paths).
  std::uint64_t reference_cell_evals = 0;
  std::uint64_t fastpath_cell_evals = 0;
};

/// Generates the case's CVB matrix and compares the reference loop against
/// the kernel under identically-seeded TieBreakers: assignment sequences
/// (task, machine, start, finish — exact doubles), completion-time vectors
/// by slot, and the TieBreakers' decision/tie-event counts (plus, under
/// HCSCHED_TRACE, the kTieDecisions/kTieEvents counter deltas of the two
/// single-mapping paths). Iterative cases
/// run the whole minimizer under ScopedMode(false) and ScopedMode(true) and
/// additionally compare iteration counts, every iteration's mapping, the
/// per-iteration makespan machines, and the final finishing-time table.
DifferentialOutcome run_differential_case(const DifferentialCase& c);

/// Cell-source property, independent of the row path the reference loops
/// and the kernels share: over a random matrix and a shuffled task/machine
/// subset derived from `seed`, along one full random removal sequence
/// (Problem::remove_machine until one machine is left), every
/// Problem::etc_at(task, slot) and every sched::EtcView row cell must
/// bit-equal matrix.at(task, machines()[slot]), the bounds-checked read.
/// Returns "" when they all do, else the first mismatch.
std::string cell_source_divergence(std::uint64_t seed);

/// One-line repro description, e.g.
/// "seed=7 t=24 m=6 consistency=semi policy=random heuristic=Sufferage".
std::string describe(const DifferentialCase& c);

}  // namespace hcsched::heuristics::fastpath
