// Bump-pool building block for the fastpath kernels' per-trial state
// (idiom after LLVM's BumpPtrAllocator; see docs/FASTPATH.md).
//
// The kernels lay their per-task state out as structure-of-arrays slices
// carved from typed bump pools: one reset() per kernel invocation sizes the
// pool to the trial's exact need, then take() hands out contiguous
// sub-spans. The backing vector keeps its capacity across invocations, so a
// study cell's 25+ trials allocate at steady state exactly zero times —
// that, not the first trial, is what amortizes ETC memory traffic. Pools
// are restricted to trivially-copyable element types: slices are handed out
// zero-initialized, never destructed, and may be resliced freely.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "core/check.hpp"

namespace hcsched::heuristics::fastpath {

template <typename T>
class BumpPool {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "BumpPool slices are never constructed or destructed");

 public:
  /// Restart the pool with room for exactly `total` elements, all
  /// zero-initialized. Capacity is retained across resets.
  void reset(std::size_t total) {
    storage_.clear();
    storage_.resize(total);
    used_ = 0;
  }

  /// The next `n` elements. Spans stay valid until the next reset().
  std::span<T> take(std::size_t n) {
    HCSCHED_INVARIANT(used_ + n <= storage_.size(),
                      "BumpPool over-allocated: ", used_ + n, " of ",
                      storage_.size());
    std::span<T> out(storage_.data() + used_, n);
    used_ += n;
    return out;
  }

 private:
  std::vector<T> storage_{};
  std::size_t used_ = 0;
};

}  // namespace hcsched::heuristics::fastpath
