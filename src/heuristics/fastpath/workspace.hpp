// Per-thread kernel workspace: the typed bump pools (arena.hpp), one
// instance per thread. The ETC rows are not kept here: each kernel gathers
// them into a map-local sched::EtcView, so no T x M buffer outlives a map
// (a thread-lifetime one raised greedy-large's peak RSS; docs/FASTPATH.md).
//
// A kernel invocation is one trial's worth of per-task state; the workspace
// is what batches trials. Each kernel begins by reset()-ing the pools to
// the trial's exact element counts and carving its structure-of-arrays
// slices from them; on the second and every later trial of a study cell the
// backing vectors already have the capacity, so at steady state the pools
// perform zero heap allocations. Three element types cover every
// kernel: doubles (ready times, scores), 32-bit task positions and slots
// (queues, claims) and size_t (tied-candidate lists, the form
// TieBreaker::choose_among takes, and bitset words). Thread-locality makes
// the study driver's worker pool safe with no locks and no false sharing.
#pragma once

#include <cstdint>

#include "heuristics/fastpath/arena.hpp"

namespace hcsched::heuristics::fastpath {

struct Workspace {
  BumpPool<double> doubles;
  BumpPool<std::uint32_t> indices;
  BumpPool<std::size_t> positions;
};

/// This thread's workspace (thread_local, created on first use).
Workspace& thread_workspace() noexcept;

}  // namespace hcsched::heuristics::fastpath
