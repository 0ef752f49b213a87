// Measures the cost of the observability layer on the hot iterative loop.
//
// Four configurations of the same Min-Min iterative run:
//   * baseline      — no sink installed: every HCSCHED_TRACE_EVENT site is
//                     one relaxed atomic load and a not-taken branch,
//   * null_sink     — events are built and routed but discarded, isolating
//                     payload-construction cost,
//   * ring_sink     — events land in the bounded in-memory buffer,
//   * jsonl_sink    — events are serialized to a JSON line (into a string
//                     stream, so no disk in the loop).
//
// Micro-cases isolate the span and metric primitives the study pipeline
// leans on since the profiling layer landed:
//   * span_enter_exit       — one HCSCHED_SPAN open/close, no sink / ring
//                             sink (the per-iteration span cost),
//   * metric_histogram_rec  — one HCSCHED_METRIC_OBSERVE (cached-static
//                             lookup, bucket index, three relaxed fetch_adds
//                             and a relaxed max).
//
// Build the library with -DHCSCHED_TRACE=0 (the `trace-off` preset) and
// re-run to verify the compile-time kill switch: every row collapses onto
// its baseline — the macro sites compile to `do { } while (0)`, so the
// span/metric micro-cases measure an empty loop body.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>

#include "core/iterative.hpp"
#include "etc/cvb_generator.hpp"
#include "heuristics/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rng/rng.hpp"

namespace {

using namespace hcsched;

etc::EtcMatrix make_matrix(std::size_t tasks, std::size_t machines) {
  etc::CvbParams params;
  params.num_tasks = tasks;
  params.num_machines = machines;
  rng::Rng rng(2024);
  return etc::CvbEtcGenerator(params).generate(rng);
}

void run_iterative(benchmark::State& state,
                   std::shared_ptr<obs::TraceSink> sink) {
  const etc::EtcMatrix matrix =
      make_matrix(static_cast<std::size_t>(state.range(0)), 8);
  const sched::Problem problem = sched::Problem::full(matrix);
  const auto heuristic = heuristics::make_heuristic("Min-Min");
  const core::IterativeMinimizer minimizer;

  std::optional<obs::ScopedSink> scope;
  if (sink) scope.emplace(std::move(sink));
  for (auto _ : state) {
    rng::TieBreaker ties;
    benchmark::DoNotOptimize(minimizer.run(*heuristic, problem, ties));
  }
  state.SetLabel(obs::kTraceCompiledIn ? "trace compiled in"
                                       : "trace compiled out");
}

void BM_Baseline(benchmark::State& state) { run_iterative(state, nullptr); }

void BM_NullSink(benchmark::State& state) {
  run_iterative(state, std::make_shared<obs::NullSink>());
}

void BM_RingSink(benchmark::State& state) {
  run_iterative(state, std::make_shared<obs::RingBufferSink>(4096));
}

void BM_JsonlSink(benchmark::State& state) {
  auto stream = std::make_shared<std::ostringstream>();
  // Keep the stream alive alongside the sink; reset it each iteration batch
  // is unnecessary — we only measure serialization cost, not growth.
  class OwningJsonl final : public obs::TraceSink {
   public:
    explicit OwningJsonl(std::shared_ptr<std::ostringstream> s)
        : stream_(std::move(s)), inner_(*stream_) {}
    void consume(const obs::TraceEvent& event) override {
      inner_.consume(event);
    }
    void flush() override { inner_.flush(); }

   private:
    std::shared_ptr<std::ostringstream> stream_;
    obs::JsonlSink inner_;
  };
  run_iterative(state, std::make_shared<OwningJsonl>(std::move(stream)));
}

// --- span / metric primitive micro-costs ---------------------------------

void BM_SpanEnterExitNoSink(benchmark::State& state) {
  // No sink installed: the span constructor takes the not-recording early
  // exit (one atomic load), allocating no IDs and reading no clock. Under
  // trace-off this is an empty loop body — the zero-overhead pin.
  for (auto _ : state) {
    HCSCHED_SPAN(span, "bench.probe");
    benchmark::DoNotOptimize(&span);
  }
  state.SetLabel(obs::kTraceCompiledIn ? "trace compiled in"
                                       : "trace compiled out");
}

void BM_SpanEnterExitRingSink(benchmark::State& state) {
  const obs::ScopedSink scope(std::make_shared<obs::RingBufferSink>(4096));
  for (auto _ : state) {
    HCSCHED_SPAN(span, "bench.probe");
    benchmark::DoNotOptimize(&span);
  }
  state.SetLabel(obs::kTraceCompiledIn ? "trace compiled in"
                                       : "trace compiled out");
}

void BM_MetricHistogramRecord(benchmark::State& state) {
  [[maybe_unused]] std::uint64_t v = 0;
  for (auto _ : state) {
    HCSCHED_METRIC_OBSERVE("hcsched_bench_probe_ns", "", ++v);
  }
  state.SetLabel(obs::kTraceCompiledIn ? "trace compiled in"
                                       : "trace compiled out");
}

BENCHMARK(BM_Baseline)->Arg(64)->Arg(256);
BENCHMARK(BM_NullSink)->Arg(64)->Arg(256);
BENCHMARK(BM_RingSink)->Arg(64)->Arg(256);
BENCHMARK(BM_JsonlSink)->Arg(64)->Arg(256);
BENCHMARK(BM_SpanEnterExitNoSink);
BENCHMARK(BM_SpanEnterExitRingSink);
BENCHMARK(BM_MetricHistogramRecord);

}  // namespace

BENCHMARK_MAIN();
