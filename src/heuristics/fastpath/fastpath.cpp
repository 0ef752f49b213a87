#include "heuristics/fastpath/fastpath.hpp"

#include <atomic>

namespace hcsched::heuristics::fastpath {

namespace {

std::atomic<bool>& use_kernels_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}

}  // namespace

bool enabled() noexcept {
  return use_kernels_flag().load(std::memory_order_relaxed);
}

ScopedMode::ScopedMode(bool use_kernels) noexcept
    : previous_(use_kernels_flag().exchange(use_kernels,
                                            std::memory_order_relaxed)) {}

ScopedMode::~ScopedMode() {
  use_kernels_flag().store(previous_, std::memory_order_relaxed);
}

}  // namespace hcsched::heuristics::fastpath
