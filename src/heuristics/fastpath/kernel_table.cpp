// The fastpath dispatch table (fastpath.hpp). Each row pairs a kernel with
// its reference oracle under the heuristic's default knobs — the adapters
// the differential suite, the fuzzer and the bench enumerate. Knob values
// are taken from default-constructed heuristics so they stay single-sourced
// with the registry's canonical instances.
#include "heuristics/fastpath/fastpath.hpp"

#include "core/check.hpp"
#include "heuristics/minmin.hpp"

namespace hcsched::heuristics::fastpath {

namespace {

Schedule minmin_reference(const Problem& problem, TieBreaker& ties) {
  return detail::two_phase_greedy_reference(problem, ties,
                                            /*prefer_largest=*/false);
}

Schedule minmin_fast(const Problem& problem, TieBreaker& ties) {
  return two_phase_greedy_fast(problem, ties, /*prefer_largest=*/false);
}

Schedule maxmin_reference(const Problem& problem, TieBreaker& ties) {
  return detail::two_phase_greedy_reference(problem, ties,
                                            /*prefer_largest=*/true);
}

Schedule maxmin_fast(const Problem& problem, TieBreaker& ties) {
  return two_phase_greedy_fast(problem, ties, /*prefer_largest=*/true);
}

Schedule sufferage_reference_default(const Problem& problem,
                                     TieBreaker& ties) {
  const Sufferage sufferage;
  return detail::sufferage_reference(problem, ties, sufferage.requeue(),
                                     nullptr);
}

Schedule sufferage_fast_default(const Problem& problem, TieBreaker& ties) {
  const Sufferage sufferage;
  return sufferage_fast(problem, ties, sufferage.requeue(), nullptr);
}

Schedule kpb_reference_default(const Problem& problem, TieBreaker& ties) {
  const Kpb kpb;
  return detail::kpb_reference(problem, ties,
                               kpb.subset_size(problem.num_machines()),
                               nullptr);
}

Schedule kpb_fast_default(const Problem& problem, TieBreaker& ties) {
  const Kpb kpb;
  return kpb_fast(problem, ties, kpb.subset_size(problem.num_machines()),
                  nullptr);
}

constexpr KernelInfo kTable[] = {
    {Kernel::kMinMin, "Min-Min", &minmin_reference, &minmin_fast},
    {Kernel::kMaxMin, "Max-Min", &maxmin_reference, &maxmin_fast},
    {Kernel::kSufferage, "Sufferage", &sufferage_reference_default,
     &sufferage_fast_default},
    {Kernel::kKpb, "KPB", &kpb_reference_default, &kpb_fast_default},
};

}  // namespace

std::span<const KernelInfo> kernel_table() noexcept { return kTable; }

const KernelInfo* find_kernel(Kernel kernel) noexcept {
  for (const KernelInfo& info : kTable) {
    if (info.kernel == kernel) return &info;
  }
  HCSCHED_UNREACHABLE("kernel ", static_cast<int>(kernel),
                      " missing from the dispatch table");
}

}  // namespace hcsched::heuristics::fastpath
