// Structured event tracing: the ring sink captures the paper's Min-Min
// worked example (Tables 1-3) iteration by iteration, and the JSONL sink's
// output round-trips through the strict JSON parser.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/paper_examples.hpp"
#include "obs/trace.hpp"

namespace {

using namespace hcsched;

TEST(Trace, RingSinkCapturesMinMinIterativeTrajectory) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>();
  const obs::ScopedSink scope(ring);

  const auto result = core::run_paper_example(core::minmin_example());
  ASSERT_EQ(result.iterations.size(), 3u);

  // One event per iteration of the technique.
  const auto events = ring->events_named("iterative.iteration");
  ASSERT_EQ(events.size(), 3u);

  // Iteration 0 mirrors Table 2: completions (5, 2, 4), makespan machine m0
  // frozen at 5.
  const obs::JsonValue first = events[0].to_json();
  EXPECT_EQ(first.at("event").as_string(), "iterative.iteration");
  EXPECT_EQ(first.at("heuristic").as_string(), "Min-Min");
  EXPECT_DOUBLE_EQ(first.at("iteration").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(first.at("makespan").as_number(), 5.0);
  const obs::JsonValue& cts0 = first.at("completion_times");
  EXPECT_DOUBLE_EQ(cts0.at("m0").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(cts0.at("m1").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(cts0.at("m2").as_number(), 4.0);
  EXPECT_EQ(first.at("removed_machine").as_string(), "m0");
  EXPECT_DOUBLE_EQ(first.at("frozen_completion_time").as_number(), 5.0);

  // Iteration 1 mirrors Table 3: m0 gone, (m1, m2) = (1, 6), new makespan
  // machine m2 — the paper's increase from 5 to 6.
  const obs::JsonValue second = events[1].to_json();
  EXPECT_DOUBLE_EQ(second.at("iteration").as_number(), 1.0);
  const obs::JsonValue& cts1 = second.at("completion_times");
  EXPECT_EQ(cts1.find("m0"), nullptr);
  EXPECT_DOUBLE_EQ(cts1.at("m1").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(cts1.at("m2").as_number(), 6.0);
  EXPECT_EQ(second.at("removed_machine").as_string(), "m2");
  EXPECT_DOUBLE_EQ(second.at("frozen_completion_time").as_number(), 6.0);

  // Terminal iteration removes nothing.
  const obs::JsonValue third = events[2].to_json();
  EXPECT_EQ(third.find("removed_machine"), nullptr);

  // The run summary records the makespan transition.
  const auto done = ring->events_named("iterative.done");
  ASSERT_EQ(done.size(), 1u);
  const obs::JsonValue summary = done[0].to_json();
  EXPECT_DOUBLE_EQ(summary.at("original_makespan").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(summary.at("final_makespan").as_number(), 6.0);
  EXPECT_TRUE(summary.at("makespan_increased").as_bool());
  EXPECT_DOUBLE_EQ(
      summary.at("final_finishing_times").at("m1").as_number(), 1.0);

  // The NVI wrapper's span closed once per mapping, carrying the size of
  // the (shrinking) problem it mapped.
  std::size_t map_spans = 0;
  for (const obs::TraceEvent& e : ring->events_named("span")) {
    const obs::JsonValue span = e.to_json();
    if (span.at("name").as_string() != "map:Min-Min") continue;
    EXPECT_NE(span.find("tasks"), nullptr);
    // Table 1 has three machines; each iteration removes one.
    EXPECT_DOUBLE_EQ(span.at("machines").as_number(),
                     3.0 - static_cast<double>(map_spans));
    ++map_spans;
  }
  EXPECT_EQ(map_spans, 3u);
}

TEST(Trace, EventsCarryMonotonicSequenceNumbers) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>();
  const obs::ScopedSink scope(ring);
  core::run_paper_example(core::minmin_example());

  const auto events = ring->events();
  ASSERT_GE(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].sequence, events[i - 1].sequence);
  }
}

TEST(Trace, JsonlSinkRoundTripsThroughParser) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  std::ostringstream out;
  {
    const obs::ScopedSink scope(std::make_shared<obs::JsonlSink>(out));
    core::run_paper_example(core::minmin_example());
  }  // ScopedSink flushes on exit

  std::istringstream lines(out.str());
  std::string line;
  std::size_t parsed = 0;
  std::size_t iteration_events = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue value = obs::JsonValue::parse(line);
    ASSERT_TRUE(value.is_object()) << line;
    EXPECT_NE(value.find("seq"), nullptr);
    EXPECT_NE(value.find("event"), nullptr);
    // Compact dump -> parse must reproduce the value exactly.
    EXPECT_EQ(obs::JsonValue::parse(value.dump()), value);
    if (value.at("event").as_string() == "iterative.iteration") {
      ++iteration_events;
    }
    ++parsed;
  }
  EXPECT_GE(parsed, 4u);
  EXPECT_EQ(iteration_events, 3u);
}

// The sink/tracer machinery itself is compiled in every configuration (only
// the instrumentation *sites* honor the kill switch), so these run
// regardless of HCSCHED_TRACE.

TEST(Trace, RingBufferEvictsOldestPastCapacity) {
  auto ring = std::make_shared<obs::RingBufferSink>(2);
  const obs::ScopedSink scope(ring);
  obs::Tracer::emit("test.a", {});
  obs::Tracer::emit("test.b", {});
  obs::Tracer::emit("test.c", {});

  EXPECT_EQ(ring->size(), 2u);
  EXPECT_EQ(ring->dropped(), 1u);
  const auto events = ring->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test.b");
  EXPECT_EQ(events[1].name, "test.c");

  ring->clear();
  EXPECT_EQ(ring->size(), 0u);
}

TEST(Trace, ScopedSinkRestoresPreviousSink) {
  auto outer = std::make_shared<obs::RingBufferSink>();
  const obs::ScopedSink outer_scope(outer);
  {
    auto inner = std::make_shared<obs::RingBufferSink>();
    const obs::ScopedSink inner_scope(inner);
    obs::Tracer::emit("test.inner", {});
    EXPECT_EQ(inner->size(), 1u);
    EXPECT_EQ(outer->size(), 0u);
  }
  obs::Tracer::emit("test.outer", {});
  EXPECT_EQ(outer->events_named("test.outer").size(), 1u);
}

TEST(Trace, InactiveTracerDropsEvents) {
  // No sink installed: emit() is a no-op and active() is false.
  {
    const obs::ScopedSink scope(nullptr);
    EXPECT_FALSE(obs::Tracer::active());
    obs::Tracer::emit("test.dropped", {});
  }
}

}  // namespace
