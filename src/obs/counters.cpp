#include "obs/counters.hpp"

#include <atomic>

namespace hcsched::obs {

namespace {

// Memory-order audit (PR 2, verified by the TSan stress suite): every
// atomic here is a monotone statistical accumulator — no load establishes
// an ordering that later non-atomic reads depend on — so relaxed ordering
// is correct throughout. Cross-thread visibility of the *buffered* values
// is provided by thread join / CounterScope destruction, not by these
// atomics; snapshot() documents the same for unflushed buffers.

// Global table. Atomics receive whole thread-local buffers at flush time, so
// contention is proportional to flush frequency, not to add() frequency.
std::array<std::atomic<std::uint64_t>, kNumCounters>& global_table() {
  static std::array<std::atomic<std::uint64_t>, kNumCounters> table{};
  return table;
}

struct ThreadBuffer {
  std::array<std::uint64_t, kNumCounters> values{};
  bool dirty = false;

  ~ThreadBuffer() { flush(); }

  void flush() noexcept {
    if (!dirty) return;
    auto& table = global_table();
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      if (values[i] != 0) {
        table[i].fetch_add(values[i], std::memory_order_relaxed);
        values[i] = 0;
      }
    }
    dirty = false;
  }
};

ThreadBuffer& thread_buffer() noexcept {
  thread_local ThreadBuffer buffer;
  return buffer;
}

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "heuristic_invocations", "etc_cell_evaluations",
    "tie_decisions",         "tie_events",
    "ga_steps",              "ga_crossovers",
    "ga_mutations",          "search_nodes_expanded",
    "iterative_runs",        "iterative_iterations",
    "pool_tasks_submitted",  "pool_tasks_completed",
    "fastpath_rescores",     "fastpath_replays",
    "faults_injected",       "trials_quarantined",
    "studies_cancelled",     "checkpoint_trials_written",
    "checkpoint_trials_replayed", "checkpoint_corrupt_lines",
    "localsearch_steps",     "localsearch_restarts",
};

}  // namespace

std::string_view to_string(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

namespace counters {

void add(Counter c, std::uint64_t n) noexcept {
  ThreadBuffer& buffer = thread_buffer();
  buffer.values[static_cast<std::size_t>(c)] += n;
  buffer.dirty = true;
}

void flush_thread() noexcept { thread_buffer().flush(); }

Snapshot Snapshot::delta_since(const Snapshot& earlier) const noexcept {
  Snapshot out;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.values[i] =
        values[i] >= earlier.values[i] ? values[i] - earlier.values[i] : 0;
  }
  return out;
}

JsonValue Snapshot::to_json() const {
  JsonValue::Object object;
  object.reserve(kNumCounters);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    object.emplace_back(std::string(kCounterNames[i]), JsonValue(values[i]));
  }
  return JsonValue(std::move(object));
}

Snapshot snapshot() {
  flush_thread();
  Snapshot out;
  auto& table = global_table();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.values[i] = table[i].load(std::memory_order_relaxed);
  }
  return out;
}

void reset() {
  ThreadBuffer& buffer = thread_buffer();
  buffer.values.fill(0);
  buffer.dirty = false;
  for (auto& slot : global_table()) {
    slot.store(0, std::memory_order_relaxed);
  }
  MetricsRegistry::global().reset();
}

}  // namespace counters

MetricHistogram& pool_wait_histogram() {
  static MetricHistogram& histogram = metrics::histogram(
      "hcsched_pool_wait_ns", "Queue wait of one pool job (submit to start)");
  return histogram;
}

MetricHistogram& pool_run_histogram() {
  static MetricHistogram& histogram = metrics::histogram(
      "hcsched_pool_run_ns", "Run latency of one pool job (start to finish)");
  return histogram;
}

}  // namespace hcsched::obs
