#include "obs/span.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <vector>

#include "rng/splitmix64.hpp"

namespace hcsched::obs {
namespace {

// One live span on the calling thread. The child-ID stream is part of the
// frame so sibling spans draw consecutive SplitMix64 outputs — the ID graph
// depends only on the tree shape and the root seed, never on timing.
struct SpanFrame {
  std::uint64_t trace_id;
  std::uint64_t span_id;
  rng::SplitMix64 child_ids;
};

thread_local std::vector<SpanFrame> t_span_stack;

// Seeds traces whose root span was opened without an explicit seed (CLI
// one-shots, pool jobs before instrumentation reaches them). Deterministic
// for a fresh process with a deterministic span-open order; studies that
// need cross-run stable IDs pass an explicit seed instead.
// Memory-order audit: the counter only needs uniqueness, not ordering
// against other memory — relaxed fetch_add suffices.
std::atomic<std::uint64_t> g_root_sequence{0};

// Distinguishes counter-derived root seeds from caller-provided ones so the
// two families of traces never collide in ID space.
constexpr std::uint64_t kProcessRootSalt = 0x5ca1ab1e0b5e55edULL;

// start_ns is reported relative to the first span of the process, keeping
// the numbers small and file-diff friendly. The epoch itself is arbitrary
// (steady_clock has no defined zero).
std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

std::string format_span_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

std::uint64_t parse_span_id(std::string_view text) {
  if (text.size() != 16) return 0;
  std::uint64_t id = 0;
  for (char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return 0;
    }
    id = (id << 4) | digit;
  }
  return id;
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view name_suffix) {
  if (!Tracer::active()) return;
  name_.reserve(name.size() + name_suffix.size());
  name_.append(name).append(name_suffix);
  if (t_span_stack.empty()) {
    const std::uint64_t seq =
        g_root_sequence.fetch_add(1, std::memory_order_relaxed);
    open(kProcessRootSalt ^ seq, /*seeded=*/false);
  } else {
    SpanFrame& parent = t_span_stack.back();
    trace_id_ = parent.trace_id;
    parent_id_ = parent.span_id;
    span_id_ = parent.child_ids.next();
    t_span_stack.push_back(
        SpanFrame{trace_id_, span_id_, rng::SplitMix64(span_id_)});
    recording_ = true;
    start_ = std::chrono::steady_clock::now();
  }
}

ScopedSpan::ScopedSpan(std::string_view name, std::uint64_t trace_seed) {
  if (!Tracer::active()) return;
  name_ = name;
  open(trace_seed, /*seeded=*/true);
}

void ScopedSpan::open(std::uint64_t trace_seed, bool seeded) {
  rng::SplitMix64 ids(trace_seed);
  trace_id_ = ids.next();
  span_id_ = ids.next();
  parent_id_ = 0;
  // A seeded root deliberately ignores any span already on the stack: the
  // study opens one deterministic trace per trial inside a (traced) pool
  // job, and the trial tree must not inherit the job's timing-dependent IDs.
  (void)seeded;
  t_span_stack.push_back(
      SpanFrame{trace_id_, span_id_, rng::SplitMix64(span_id_)});
  recording_ = true;
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!recording_) return;
  const auto end = std::chrono::steady_clock::now();
  assert(!t_span_stack.empty() && t_span_stack.back().span_id == span_id_ &&
         "spans must close in LIFO order per thread");
  t_span_stack.pop_back();

  const auto ns = [](std::chrono::steady_clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  JsonValue::Object fields;
  fields.reserve(attrs_.size() + 6);
  fields.emplace_back("name", JsonValue(name_));
  fields.emplace_back("trace_id", JsonValue(format_span_id(trace_id_)));
  fields.emplace_back("span_id", JsonValue(format_span_id(span_id_)));
  if (parent_id_ != 0) {
    fields.emplace_back("parent_span_id",
                        JsonValue(format_span_id(parent_id_)));
  }
  fields.emplace_back("start_ns", JsonValue(ns(start_ - process_epoch())));
  fields.emplace_back("duration_ns", JsonValue(ns(end - start_)));
  for (auto& [key, value] : attrs_) {
    fields.emplace_back(key, std::move(value));
  }
  Tracer::emit("span", std::move(fields));
}

void ScopedSpan::attr(std::string_view key, JsonValue value) {
  if (!recording_) return;
  attrs_.emplace_back(std::string(key), std::move(value));
}

namespace spans {

std::size_t thread_depth() noexcept { return t_span_stack.size(); }

}  // namespace spans

}  // namespace hcsched::obs
