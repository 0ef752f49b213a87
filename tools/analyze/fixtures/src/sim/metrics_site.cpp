// Fixture for metric-docs: an undocumented metric name must be flagged; a
// documented name and an audited lint:allow(metric-docs) line must pass.
// The HCSCHED_METRIC_* macros are self-guarding, so trace-guard stays
// silent here.
#include "obs/metrics.hpp"

namespace fixture {

void sites() {
  HCSCHED_METRIC_OBSERVE("hcsched_undocumented_ns", "Not in the docs", 1);
  HCSCHED_METRIC_OBSERVE("hcsched_documented_ns", "In the docs", 1);
  // lint:allow(metric-docs)
  HCSCHED_METRIC_OBSERVE("hcsched_audited_ns", "Suppressed by audit", 7);
}

}  // namespace fixture

// Fixture functions are intentionally exercised by nothing.
// hcsched-lint: allow(dead-symbol)
