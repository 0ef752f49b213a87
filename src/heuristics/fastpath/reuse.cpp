#include "heuristics/fastpath/reuse.hpp"

namespace hcsched::heuristics::fastpath {

namespace {

thread_local IterativeReuse* g_active = nullptr;

}  // namespace

void IterativeReuse::apply_removal(std::size_t slot,
                                   std::span<const std::size_t> rows) {
  const std::size_t t = current_->num_tasks();
  const std::size_t m = current_->num_machines();
  if (rankings_built_) {
    // Keep each surviving row's relative order and renumber slots past the
    // removed one — exactly what a fresh (ETC, slot) sort of the shrunk row
    // would produce, since dropping one key preserves the order of the rest.
    const std::size_t old_t = t + rows.size();
    const std::size_t old_m = m + 1;
    const std::uint32_t gone = static_cast<std::uint32_t>(slot);
    const std::uint32_t* in = rankings_.data();
    std::uint32_t* out = rankings_.data();
    std::size_t next_drop = 0;
    for (std::size_t r = 0; r < old_t; ++r, in += old_m) {
      if (next_drop < rows.size() && rows[next_drop] == r) {
        ++next_drop;
        continue;
      }
      for (std::size_t i = 0; i < old_m; ++i) {
        const std::uint32_t s = in[i];
        if (s == gone) continue;
        *out++ = s > gone ? s - 1 : s;
      }
    }
    rankings_.resize(t * m);
  }
}

ScopedReuse::ScopedReuse(IterativeReuse& reuse) noexcept
    : previous_(g_active) {
  g_active = &reuse;
}

ScopedReuse::~ScopedReuse() { g_active = previous_; }

IterativeReuse* active_reuse(const sched::Problem& problem) noexcept {
  IterativeReuse* r = g_active;
  return (r != nullptr && r->matches(problem)) ? r : nullptr;
}

}  // namespace hcsched::heuristics::fastpath
