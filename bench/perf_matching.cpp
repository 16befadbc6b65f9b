// Microbenchmarks for generation and the co-analysis core on the
// full-scale log pair.
#include <benchmark/benchmark.h>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::intrepid_scenario(42));
  return result;
}

void BM_GenerateSmallScenario(benchmark::State& state) {
  // Fixed seed: generation cost varies noticeably across seeds (different
  // workload/fault draws), so a seed-per-iteration loop made the reported
  // mean a function of how many iterations the harness happened to run.
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::generate(synth::small_scenario(1)));
  }
}
// MinTime pinned above the CI-wide --benchmark_min_time=0.1: at ~180 ms per
// iteration that flag yields a single cold iteration (allocator + page
// faults included), which reads ~60% high and trips the regression gate.
BENCHMARK(BM_GenerateSmallScenario)->Unit(benchmark::kMillisecond)->MinTime(0.5);

void BM_JobRunningAtQuery(benchmark::State& state) {
  // A single fixed query sits below the 4-decimal-ms resolution of the
  // committed bench trajectory (it recorded as 0.0), and a loop-invariant
  // call invites hoisting. Batch a sweep of query times per iteration and
  // consume every result, reporting per-batch time.
  const auto& jobs = data().jobs;
  const bgp::Location loc = bgp::Location::parse("R10-M0-N04");
  const TimePoint base = TimePoint::from_calendar(2009, 3, 1);
  constexpr int kQueries = 4096;
  for (auto _ : state) {
    std::size_t running = 0;
    for (int q = 0; q < kQueries; ++q) {
      const TimePoint t = base + static_cast<Usec>(q) * (kUsecPerHour / 2);
      const std::vector<std::size_t> hits = jobs.running_at(t, loc);
      benchmark::DoNotOptimize(hits.data());
      running += hits.size();
    }
    benchmark::DoNotOptimize(running);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kQueries);
}
BENCHMARK(BM_JobRunningAtQuery)->Unit(benchmark::kMillisecond);

void BM_FullCoAnalysis(benchmark::State& state) {
  (void)data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_coanalysis(data().ras, data().jobs));
  }
}
BENCHMARK(BM_FullCoAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
