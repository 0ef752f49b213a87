// Typed metrics registry: bucket boundaries, registration semantics,
// snapshot JSON round-trips, the Prometheus text exposition golden, reset
// behaviour, and the HCSCHED_TRACE kill switch on the macros. (Named
// test_obs_metrics to keep clear of test_metrics.cpp, which covers the
// scheduling-quality metrics of the paper.)
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace hcsched;
using obs::MetricHistogram;

TEST(MetricHistogramBuckets, IndexMatchesLog4Boundaries) {
  // Bucket i holds 4^i < v <= 4^(i+1); bucket 0 additionally takes [0, 4].
  EXPECT_EQ(MetricHistogram::bucket_index(0), 0u);
  EXPECT_EQ(MetricHistogram::bucket_index(1), 0u);
  EXPECT_EQ(MetricHistogram::bucket_index(4), 0u);
  EXPECT_EQ(MetricHistogram::bucket_index(5), 1u);
  EXPECT_EQ(MetricHistogram::bucket_index(16), 1u);
  EXPECT_EQ(MetricHistogram::bucket_index(17), 2u);
  EXPECT_EQ(MetricHistogram::bucket_index(64), 2u);
  EXPECT_EQ(MetricHistogram::bucket_index(65), 3u);
  EXPECT_EQ(MetricHistogram::bucket_index(~std::uint64_t{0}),
            MetricHistogram::kBuckets - 1);
}

TEST(MetricHistogramBuckets, UpperBoundsArePowersOfFourThenInf) {
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(0), 4u);
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(1), 16u);
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(2), 64u);
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(MetricHistogram::kBuckets - 1),
            ~std::uint64_t{0});
  // Every observed value lands in the bucket whose bound covers it.
  for (std::size_t i = 0; i + 1 < MetricHistogram::kBuckets; ++i) {
    const std::uint64_t bound = MetricHistogram::bucket_upper_bound(i);
    EXPECT_EQ(MetricHistogram::bucket_index(bound), i);
    EXPECT_EQ(MetricHistogram::bucket_index(bound + 1), i + 1);
  }
}

TEST(MetricsRegistry, SameNameYieldsSameInstrument) {
  obs::MetricsRegistry registry;
  obs::MetricGauge& a = registry.gauge("hcsched_test_depth", "depth");
  obs::MetricGauge& b = registry.gauge("hcsched_test_depth");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  a.set(2);
  EXPECT_EQ(b.value(), 2);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.gauge("hcsched_test_mixed");
  EXPECT_THROW(registry.histogram("hcsched_test_mixed"),
               std::invalid_argument);
  registry.histogram("hcsched_test_mixed_ns");
  EXPECT_THROW(registry.gauge("hcsched_test_mixed_ns"),
               std::invalid_argument);
}

TEST(MetricsRegistry, InvalidNamesThrow) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.gauge(""), std::invalid_argument);
  EXPECT_THROW(registry.gauge("9leading_digit"), std::invalid_argument);
  EXPECT_THROW(registry.gauge("has-dash"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("has space"), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotJsonRoundTripsThroughParser) {
  obs::MetricsRegistry registry;
  registry.gauge("hcsched_test_depth").set(-2);
  obs::MetricHistogram& h =
      registry.histogram("hcsched_test_lat_ns", "Latency");
  h.observe(1);
  h.observe(5);
  h.observe(100);

  const obs::JsonValue parsed =
      obs::JsonValue::parse(registry.snapshot_json().dump());
  const auto& metrics = parsed.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 2u);  // sorted by name
  EXPECT_EQ(metrics[0].at("name").as_string(), "hcsched_test_depth");
  EXPECT_EQ(metrics[0].at("kind").as_string(), "gauge");
  EXPECT_DOUBLE_EQ(metrics[0].at("value").as_number(), -2.0);
  EXPECT_EQ(metrics[0].find("help"), nullptr);  // empty help elided

  EXPECT_EQ(metrics[1].at("name").as_string(), "hcsched_test_lat_ns");
  EXPECT_EQ(metrics[1].at("kind").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(metrics[1].at("count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(metrics[1].at("sum").as_number(), 106.0);
  const auto& buckets = metrics[1].at("buckets").as_array();
  // Non-empty buckets 0 (v=1), 1 (v=5), 3 (v=100) plus the pinned +Inf.
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[2].at("le").as_number(), 256.0);
  EXPECT_DOUBLE_EQ(buckets[2].at("count").as_number(), 1.0);
  EXPECT_EQ(buckets[3].at("le").as_string(), "+Inf");
}

TEST(MetricsRegistry, PrometheusExpositionMatchesGolden) {
  // A LOCAL registry: the global one accumulates across the whole test
  // binary and cannot be pinned.
  obs::MetricsRegistry registry;
  registry.gauge("hcsched_test_depth").set(-2);
  obs::MetricHistogram& h =
      registry.histogram("hcsched_test_lat_ns", "Latency");
  h.observe(1);
  h.observe(5);
  h.observe(100);

  const std::string text = registry.prometheus_text();

  // Families appear sorted by name; the gauge (no help string) leads.
  EXPECT_EQ(text.rfind("# TYPE hcsched_test_depth gauge\n"
                       "hcsched_test_depth -2\n",
                       0),
            0u);
  EXPECT_NE(text.find("# HELP hcsched_test_lat_ns Latency\n"
                      "# TYPE hcsched_test_lat_ns histogram\n"),
            std::string::npos);
  // Cumulative bucket counts: 1 at le=4, 2 from le=16, 3 from le=256 on.
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"16\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"64\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"256\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_sum 106\n"), std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_count 3\n"), std::string::npos);

  // Exposition-format sanity: every line is a comment or `name[{labels}]
  // value` with a parseable numeric value.
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.rfind("# ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW({
      (void)std::stod(line.substr(space + 1));
    }) << line;
  }
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  obs::MetricsRegistry registry;
  obs::MetricGauge& g = registry.gauge("hcsched_test_reset_depth");
  g.set(7);
  obs::MetricHistogram& h = registry.histogram("hcsched_test_reset_ns");
  h.observe(42);
  registry.reset();
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(g.value(), 0);  // cached reference stays valid
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
  g.add(1);
  EXPECT_EQ(g.value(), 1);
}

TEST(MetricsMacros, HonourCompileTimeKillSwitch) {
  // The macro registers in the GLOBAL registry on first execution — but
  // only when tracing is compiled in; under -DHCSCHED_TRACE=0 the site
  // vanishes and the name never appears.
  HCSCHED_METRIC_OBSERVE("hcsched_test_macro_probe_ns", "Macro probe", 1);
  bool found = false;
  const obs::JsonValue snapshot = obs::metrics::snapshot_json();
  for (const obs::JsonValue& m : snapshot.at("metrics").as_array()) {
    if (m.at("name").as_string() == "hcsched_test_macro_probe_ns") {
      found = true;
      EXPECT_GE(m.at("count").as_number(), 1.0);
    }
  }
  EXPECT_EQ(found, obs::kTraceCompiledIn);
}

}  // namespace
