#include "heuristics/fastpath/reuse.hpp"

#include "core/check.hpp"

namespace hcsched::heuristics::fastpath {

namespace {

thread_local IterativeReuse* g_active = nullptr;

}  // namespace

void IterativeReuse::apply_removal(std::size_t slot,
                                   std::span<const std::size_t> rows) {
  const std::size_t t = current_->num_tasks();
  const std::size_t m = current_->num_machines();
  if (view_built_) view_.compact(slot, rows);

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

const EtcView& IterativeReuse::view() {
  if (!view_built_) {
    view_.assign(*current_);
    view_built_ = true;
  }
  // A removal of `current` that apply_removal missed shows up here first.
  HCSCHED_INVARIANT(view_.num_tasks() == current_->num_tasks() &&
                        view_.num_slots() == current_->num_machines(),
                    "IterativeReuse: view is ", view_.num_tasks(), " x ",
                    view_.num_slots(), ", problem is ",
                    current_->num_tasks(), " x ",
                    current_->num_machines());
  return view_;
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
  if (IterativeReuse* r = active_reuse(problem)) return r->view();
  scratch.assign(problem);
  return scratch;
}

}  // namespace hcsched::heuristics::fastpath
