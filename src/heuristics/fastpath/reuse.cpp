#include "heuristics/fastpath/reuse.hpp"

namespace hcsched::heuristics::fastpath {

namespace {

thread_local IterativeReuse* g_active = nullptr;

}  // namespace

IterativeReuse::IterativeReuse(const sched::Problem& initial)
    : mirror_(initial), view_(initial) {}

void IterativeReuse::apply_removal(std::size_t slot,
                                   std::span<const std::size_t> rows) {
  const std::size_t old_t = mirror_.num_tasks();
  const std::size_t old_m = mirror_.num_machines();
  mirror_.remove_machine(slot, rows);
  view_.compact(slot, rows);

  if (rankings_built_) {
    // Keep each surviving row's relative order and renumber slots past the
    // removed one — exactly what a fresh (ETC, slot) sort of the shrunk row
    // would produce, since dropping one key preserves the order of the rest.
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
    rankings_.resize(mirror_.num_tasks() * mirror_.num_machines());
  }
}

bool IterativeReuse::matches(const sched::Problem& p) const noexcept {
  return &p.matrix() == &mirror_.matrix() && p.tasks() == mirror_.tasks() &&
         p.machines() == mirror_.machines();
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

const EtcView& acquire_view(const sched::Problem& problem, EtcView& scratch) {
  if (const IterativeReuse* r = active_reuse(problem)) return r->view();
  scratch.assign(problem);
  return scratch;
}

}  // namespace hcsched::heuristics::fastpath
