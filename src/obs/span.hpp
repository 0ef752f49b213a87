// Hierarchical scoped spans (observability pillar 2 of 3 — profiling).
//
// A span is a named, timed region of execution with a parent/child
// structure: every ScopedSpan opened while another span is live on the same
// thread becomes its child, so nested instrumentation (study → trial →
// iterative run → iteration → heuristic map) reconstructs as a tree. Spans
// are emitted through the existing TraceSink interface as a new `span`
// event kind when they *close*, carrying:
//
//   name, trace_id, span_id, parent_span_id (children only),
//   start_ns (monotonic, process-relative), duration_ns, plus any
//   attributes attached via HCSCHED_SPAN_ATTR.
//
// ID determinism: span/trace IDs are drawn from rng::SplitMix64 streams,
// never from entropy or the clock. A root span seeds its stream either from
// an explicit caller-provided seed (the study derives one per trial from the
// study seed, so resumed/re-run studies emit identical IDs) or from a
// process-local root counter; each child's ID is the next output of its
// parent's stream. Given the same seeds and call structure, the emitted ID
// graph is byte-identical across runs — only the timing fields vary.
//
// Call sites use the macros at the bottom of this header:
//
//   HCSCHED_SPAN(span, "iteration");            // child of current, or root
//   HCSCHED_SPAN_SEEDED(span, "trial", seed);   // deterministic trace root
//   HCSCHED_SPAN_ATTR(span, "makespan_machine", obs::JsonValue(m));
//
// which 1) compile to *nothing* under -DHCSCHED_TRACE=0 (the same
// kill switch as HCSCHED_TRACE_EVENT; bench_trace_overhead pins this), and
// 2) otherwise skip ID allocation, payload building, and clock reads unless
// a sink is installed, so an untraced run pays one branch per site.
//
// Durations use std::chrono::steady_clock (monotonic; system_clock is
// banned from core by the no-nondeterminism lint rule).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace hcsched::obs {

/// Formats a 64-bit span/trace ID the way span events carry it: 16
/// lowercase hex digits, zero-padded.
std::string format_span_id(std::uint64_t id);

/// Parses the 16-hex-digit form back to the integer ID. Returns 0 on
/// malformed input (0 is never allocated as a live ID).
std::uint64_t parse_span_id(std::string_view text);

/// RAII span. Construction captures the parent from the calling thread's
/// span stack (or starts a new trace) and reads the monotonic clock;
/// destruction emits one `span` trace event. When no sink is installed at
/// construction the span records nothing and allocates no IDs.
///
/// Prefer the HCSCHED_SPAN / HCSCHED_SPAN_SEEDED macros over naming this
/// type directly: the macros honour the HCSCHED_TRACE kill switch.
class ScopedSpan {
 public:
  /// Opens a span as a child of the calling thread's current span; with no
  /// span open it becomes the root of a new trace seeded from a
  /// process-local root counter.
  explicit ScopedSpan(std::string name);

  /// Opens the root of a new trace whose trace/span IDs derive from
  /// `trace_seed` via SplitMix64 — deterministic regardless of which thread
  /// runs it or what other spans are live.
  ScopedSpan(std::string name, std::uint64_t trace_seed);

  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Whether this span will emit on close (a sink was installed when it
  /// opened). Gate attribute construction on this — HCSCHED_SPAN_ATTR does.
  bool recording() const noexcept { return recording_; }

  /// Attaches an attribute to the emitted event (last write per key wins at
  /// the consumer; we append in call order). No-op unless recording.
  void attr(std::string_view key, JsonValue value);

  std::uint64_t trace_id() const noexcept { return trace_id_; }
  std::uint64_t span_id() const noexcept { return span_id_; }
  /// 0 for roots.
  // lint:allow(dead-symbol) — completes the id triple the event carries
  std::uint64_t parent_span_id() const noexcept { return parent_id_; }

 private:
  void open(std::uint64_t trace_seed, bool seeded);

  std::string name_;
  JsonValue::Object attrs_{};
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  bool recording_ = false;
};

/// The no-op stand-in the macros expand to under -DHCSCHED_TRACE=0. All
/// members are empty inline functions, so span sites vanish entirely.
class NullSpan {
 public:
  constexpr bool recording() const noexcept { return false; }
  constexpr std::uint64_t trace_id() const noexcept { return 0; }
  constexpr std::uint64_t span_id() const noexcept { return 0; }
  // lint:allow(dead-symbol) — mirrors ScopedSpan::parent_span_id
  constexpr std::uint64_t parent_span_id() const noexcept { return 0; }
};

namespace spans {

/// Depth of the calling thread's span stack (tests / assertions).
std::size_t thread_depth() noexcept;

}  // namespace spans

}  // namespace hcsched::obs

#if HCSCHED_TRACE
/// Opens a scoped span named `name` (child of the thread's current span).
#define HCSCHED_SPAN(var, name) ::hcsched::obs::ScopedSpan var { name }
/// Opens a scoped span rooting a new trace deterministically from `seed`.
#define HCSCHED_SPAN_SEEDED(var, name, seed) \
  ::hcsched::obs::ScopedSpan var { name, seed }
/// Attaches `key: value` to `var`; the value expression is only evaluated
/// while the span is recording.
#define HCSCHED_SPAN_ATTR(var, key, ...) \
  do {                                   \
    if ((var).recording()) {             \
      (var).attr((key), __VA_ARGS__);    \
    }                                    \
  } while (0)
#else
#define HCSCHED_SPAN(var, name) \
  ::hcsched::obs::NullSpan var {}
#define HCSCHED_SPAN_SEEDED(var, name, seed) \
  ::hcsched::obs::NullSpan var {}
#define HCSCHED_SPAN_ATTR(var, key, ...) \
  do {                                   \
    (void)(var);                         \
  } while (0)
#endif
