// Metrics registry (observability pillar 3 of 3 with obs/counters.hpp:
// counting and timing).
//
// Where trace events answer "what happened" and spans answer "where did the
// time go", metrics answer "how much, in total": gauges and fixed-bucket
// log-scaled histograms that accumulate for the lifetime of the process and
// snapshot to JSON or Prometheus text exposition. The `hcsched stats`
// subcommand renders it after a run. Counting belongs to the Counter catalog
// (obs/counters.hpp), which metrics::prometheus_text() exposes as the
// labelled `hcsched_ops_total` family; the registry has no counter kind.
//
// Shape:
//   * MetricGauge     — int64 point-in-time value, set/add (relaxed atomic).
//   * MetricHistogram — 32 fixed log4-scaled buckets (upper bound of bucket
//     i is 4^(i+1), last bucket +Inf) plus count, sum and max. Lock-free;
//     the only histogram type in obs/.
//   * MetricsRegistry — name → instrument table. Registration is
//     mutex-guarded (GUARDED_BY-annotated per the lock-annotation lint
//     rule); instruments live behind stable heap pointers so call sites can
//     cache the returned reference and update with zero lock traffic.
//
// Instrumented code uses the HCSCHED_METRIC_* macros below, which compile
// to nothing under -DHCSCHED_TRACE=0 (the same kill switch as trace events
// and spans — bench_trace_overhead pins the zero-cost claim) and otherwise
// cache the registry lookup in a function-local static. The query side
// (snapshot_json / prometheus_text) stays compiled in every configuration,
// mirroring counters.hpp.
//
// Metric names follow Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*,
// `hcsched_` prefix, unit suffix like `_ns` on histograms) and every name
// registered from src/ must be documented in docs/OBSERVABILITY.md — the
// `metric-docs` lint rule enforces this.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/thread_annotations.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"  // HCSCHED_TRACE default

namespace hcsched::obs {

class MetricGauge {
 public:
  void set(std::int64_t v) noexcept {
    // Memory-order audit: last-writer-wins sample, no ordering — relaxed.
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log-scaled histogram: bucket i counts observed values v with
/// 4^i < v <= 4^(i+1) (bucket 0 additionally takes v in [0, 4]; the last
/// bucket is unbounded). 32 buckets cover [0, 4^31 ≈ 4.6e18], enough for
/// nanosecond latencies from single digits to ~146 years. The largest
/// observed value is kept exactly (max_ns()).
class MetricHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  /// Upper bound of bucket i (inclusive, Prometheus `le` semantics). The
  /// last bucket is +Inf, reported here as the saturated uint64 max.
  static constexpr std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
    if (i + 1 >= kBuckets) return ~std::uint64_t{0};
    return std::uint64_t{1} << (2 * (i + 1));
  }

  static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v <= 1) return 0;
    const int width = 64 - countl_zero_u64(v - 1);
    const std::size_t i = static_cast<std::size_t>((width + 1) / 2) - 1;
    return i < kBuckets ? i : kBuckets - 1;
  }

  void observe(std::uint64_t v) noexcept {
    // Memory-order audit: independent accumulators; snapshots tolerate
    // torn-across-cells reads (count/sum/buckets may momentarily disagree
    // by in-flight observations) — relaxed.
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t max = max_.load(std::memory_order_relaxed);
    while (v > max &&
           !max_.compare_exchange_weak(max, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_ns() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  // Portable bit_width helper (constexpr-friendly; <bit> needs no polyfill
  // on our toolchains but keeping it local makes bucket_index self-checked
  // in tests without pulling <bit> into every includer).
  static constexpr int countl_zero_u64(std::uint64_t v) noexcept {
    int n = 0;
    for (std::uint64_t probe = std::uint64_t{1} << 63; probe != 0;
         probe >>= 1, ++n) {
      if (v & probe) return n;
    }
    return 64;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind { kGauge, kHistogram };

/// Returns "gauge" / "histogram".
std::string_view to_string(MetricKind kind) noexcept;

/// Name → instrument table. Thread-safe; instrument references returned by
/// the accessors stay valid for the registry's lifetime (instruments are
/// never erased — reset() zeroes values but keeps registrations).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) the named instrument. The first registration's
  /// help string wins. Throws std::invalid_argument when `name` is not a
  /// valid Prometheus metric name or is already registered as another kind.
  MetricGauge& gauge(std::string_view name, std::string_view help = {})
      HCSCHED_EXCLUDES(mutex_);
  MetricHistogram& histogram(std::string_view name, std::string_view help = {})
      HCSCHED_EXCLUDES(mutex_);

  /// Number of registered instruments.
  std::size_t size() const HCSCHED_EXCLUDES(mutex_);

  /// {"metrics": [{name, kind, help, ...value fields}, ...]}, sorted by
  /// name. Histograms carry {count, sum, buckets: [{le, count}, ...]} with
  /// empty buckets elided and a final {"le": "+Inf"} entry.
  JsonValue snapshot_json() const HCSCHED_EXCLUDES(mutex_);

  /// Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
  /// comments followed by sample lines, families sorted by name.
  std::string prometheus_text() const HCSCHED_EXCLUDES(mutex_);

  /// Zeroes every instrument, keeping registrations (and cached
  /// references) valid.
  void reset() HCSCHED_EXCLUDES(mutex_);

  /// The process-global registry the HCSCHED_METRIC_* macros feed;
  /// counters::reset() zeroes it.
  static MetricsRegistry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::string help;
    // Exactly one is non-null, matching `kind`; unique_ptr keeps the
    // instrument address stable across map rehash-free but node-moving
    // operations and lets call sites cache references lock-free.
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<MetricHistogram> histogram;
  };

  Entry& find_or_create(std::string_view name, std::string_view help,
                        MetricKind kind) HCSCHED_REQUIRES(mutex_);

  mutable core::Mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_
      HCSCHED_GUARDED_BY(mutex_){};
};

/// Convenience free functions over MetricsRegistry::global().
namespace metrics {

MetricGauge& gauge(std::string_view name, std::string_view help = {});
MetricHistogram& histogram(std::string_view name, std::string_view help = {});

JsonValue snapshot_json();
/// The global registry's exposition followed by the Counter catalog as one
/// labelled family, `hcsched_ops_total{op="<counter name>"}`.
std::string prometheus_text();

}  // namespace metrics

}  // namespace hcsched::obs

#if HCSCHED_TRACE
/// Sets the named global gauge to `v`.
#define HCSCHED_METRIC_GAUGE_SET(name, help, v)                        \
  do {                                                                 \
    static ::hcsched::obs::MetricGauge& hcsched_metric_gauge_ =        \
        ::hcsched::obs::metrics::gauge((name), (help));                \
    hcsched_metric_gauge_.set(static_cast<std::int64_t>(v));           \
  } while (0)
/// Records `v` into the named global histogram.
#define HCSCHED_METRIC_OBSERVE(name, help, v)                          \
  do {                                                                 \
    static ::hcsched::obs::MetricHistogram& hcsched_metric_histogram_ = \
        ::hcsched::obs::metrics::histogram((name), (help));            \
    hcsched_metric_histogram_.observe(static_cast<std::uint64_t>(v));  \
  } while (0)
#else
#define HCSCHED_METRIC_GAUGE_SET(name, help, v) \
  do {                                          \
  } while (0)
#define HCSCHED_METRIC_OBSERVE(name, help, v) \
  do {                                        \
  } while (0)
#endif
