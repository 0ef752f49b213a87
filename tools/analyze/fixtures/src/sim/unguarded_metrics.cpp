// Fixture with raw span construction and a raw metrics-registry call
// OUTSIDE any #if HCSCHED_TRACE region (trace-guard must flag both) plus
// guarded variants that must pass. The metric names used here are listed
// in the fixture docs/OBSERVABILITY.md so only trace-guard fires.
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fixture {

void bad_span() {
  obs::ScopedSpan span("fixture.raw");
}

void bad_metric() {
  obs::metrics::histogram("hcsched_fixture_raw_ns").observe(1);
}

#if HCSCHED_TRACE
void good_span() {
  obs::ScopedSpan span("fixture.guarded");
}

void good_metric() {
  obs::metrics::gauge("hcsched_fixture_gauge").set(1);
}
#endif

}  // namespace fixture

// Fixture functions are intentionally exercised by nothing.
// hcsched-lint: allow(dead-symbol)
