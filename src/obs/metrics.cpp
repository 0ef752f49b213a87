#include "obs/metrics.hpp"

#include <stdexcept>

#include "obs/counters.hpp"

namespace hcsched::obs {
namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        std::string_view help,
                                                        MetricKind kind) {
  if (auto it = entries_.find(name); it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("metric '" + std::string(name) +
                                  "' already registered as " +
                                  std::string(to_string(it->second.kind)));
    }
    return it->second;
  }
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + std::string(name) +
                                "'");
  }
  Entry entry{kind, std::string(help), nullptr, nullptr};
  switch (kind) {
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<MetricGauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<MetricHistogram>();
      break;
  }
  return entries_.emplace(std::string(name), std::move(entry)).first->second;
}

MetricGauge& MetricsRegistry::gauge(std::string_view name,
                                    std::string_view help) {
  core::MutexLock lock(mutex_);
  return *find_or_create(name, help, MetricKind::kGauge).gauge;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name,
                                            std::string_view help) {
  core::MutexLock lock(mutex_);
  return *find_or_create(name, help, MetricKind::kHistogram).histogram;
}

std::size_t MetricsRegistry::size() const {
  core::MutexLock lock(mutex_);
  return entries_.size();
}

JsonValue MetricsRegistry::snapshot_json() const {
  core::MutexLock lock(mutex_);
  JsonValue::Array metrics;
  metrics.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    JsonValue::Object m;
    m.emplace_back("name", JsonValue(name));
    m.emplace_back("kind", JsonValue(to_string(entry.kind)));
    if (!entry.help.empty()) {
      m.emplace_back("help", JsonValue(entry.help));
    }
    switch (entry.kind) {
      case MetricKind::kGauge:
        m.emplace_back("value", JsonValue(entry.gauge->value()));
        break;
      case MetricKind::kHistogram: {
        const MetricHistogram& h = *entry.histogram;
        m.emplace_back("count", JsonValue(h.count()));
        m.emplace_back("sum", JsonValue(h.sum()));
        JsonValue::Array buckets;
        for (std::size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
          const std::uint64_t n = h.bucket_count(i);
          if (n == 0 && i + 1 < MetricHistogram::kBuckets) continue;
          JsonValue::Object b;
          if (i + 1 < MetricHistogram::kBuckets) {
            b.emplace_back("le",
                           JsonValue(MetricHistogram::bucket_upper_bound(i)));
          } else {
            b.emplace_back("le", JsonValue("+Inf"));
          }
          b.emplace_back("count", JsonValue(n));
          buckets.emplace_back(std::move(b));
        }
        m.emplace_back("buckets", JsonValue(std::move(buckets)));
        break;
      }
    }
    metrics.emplace_back(JsonValue(std::move(m)));
  }
  JsonValue::Object root;
  root.emplace_back("metrics", JsonValue(std::move(metrics)));
  return JsonValue(std::move(root));
}

std::string MetricsRegistry::prometheus_text() const {
  core::MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) {
      out += "# HELP ";
      out += name;
      out += ' ';
      out += entry.help;
      out += '\n';
    }
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += to_string(entry.kind);
    out += '\n';
    switch (entry.kind) {
      case MetricKind::kGauge:
        out += name;
        out += ' ';
        out += std::to_string(entry.gauge->value());
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        const MetricHistogram& h = *entry.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
          cumulative += h.bucket_count(i);
          out += name;
          out += "_bucket{le=\"";
          if (i + 1 < MetricHistogram::kBuckets) {
            out += std::to_string(MetricHistogram::bucket_upper_bound(i));
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          out += std::to_string(cumulative);
          out += '\n';
        }
        out += name;
        out += "_sum ";
        out += std::to_string(h.sum());
        out += '\n';
        out += name;
        out += "_count ";
        out += std::to_string(h.count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  core::MutexLock lock(mutex_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    switch (entry.kind) {
      case MetricKind::kGauge:
        entry.gauge->reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Function-local static: constructed on first use, never destroyed order
  // problems — instrument references cached by the macros stay valid for
  // the process lifetime.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace metrics {

MetricGauge& gauge(std::string_view name, std::string_view help) {
  return MetricsRegistry::global().gauge(name, help);
}

MetricHistogram& histogram(std::string_view name, std::string_view help) {
  return MetricsRegistry::global().histogram(name, help);
}

JsonValue snapshot_json() { return MetricsRegistry::global().snapshot_json(); }

std::string prometheus_text() {
  std::string out = MetricsRegistry::global().prometheus_text();
  // The catalog as one labelled family, so scrape configs need no
  // per-counter name list.
  out +=
      "# HELP hcsched_ops_total Monotonic operation counters (see "
      "docs/OBSERVABILITY.md)\n"
      "# TYPE hcsched_ops_total counter\n";
  const counters::Snapshot snapshot = counters::snapshot();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out += "hcsched_ops_total{op=\"";
    out += to_string(static_cast<Counter>(i));
    out += "\"} ";
    out += std::to_string(snapshot.values[i]);
    out += '\n';
  }
  return out;
}

}  // namespace metrics

}  // namespace hcsched::obs
