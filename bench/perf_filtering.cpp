// Microbenchmarks for the RAS-log side of the front end on the full-scale
// log: the FATAL-record gather and the binary v2/v3 readers and writers.
// The filter stages themselves are timed inside the streaming front end
// (perf_streaming, BM_FullCoAnalysis). The pooled writer bench measures
// process CPU time: gbench's default counts only the calling thread, which
// would leave the pool workers' encode out.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "coral/common/parallel.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::intrepid_scenario(42));
  return result;
}

void BM_ExtractFatal(benchmark::State& state) {
  (void)data();  // build the log outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(data().ras.fatal_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_ExtractFatal);

void BM_RasBinaryWrite(benchmark::State& state) {
  (void)data();
  for (auto _ : state) {
    std::ostringstream out;
    ras::write_binary(out, data().ras, {.version = 2});
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryWrite);

void BM_RasBinaryRead(benchmark::State& state) {
  std::ostringstream out;
  ras::write_binary(out, data().ras, {.version = 2});
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    benchmark::DoNotOptimize(ras::read_binary(in));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryRead);

void BM_RasBinaryWriteV3(benchmark::State& state) {
  (void)data();
  for (auto _ : state) {
    std::ostringstream out;
    ras::write_binary(out, data().ras, {});
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryWriteV3);

void BM_RasBinaryWriteV3Parallel(benchmark::State& state) {
  (void)data();
  par::ThreadPool pool;
  for (auto _ : state) {
    std::ostringstream out;
    ras::WriteOptions opts;
    opts.pool = &pool;
    ras::write_binary(out, data().ras, opts);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryWriteV3Parallel)->MeasureProcessCPUTime();

// Writes the v3 store to a temp file once; the read benches then measure
// the real full-file path (read_binary_file's stream walk), the same way a
// consumer opens an archive.
const std::string& v3_file() {
  static const std::string path = [] {
    std::string p =
        (std::filesystem::temp_directory_path() / "perf_filtering_ras.v3").string();
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    ras::write_binary(out, data().ras, {});
    return p;
  }();
  return path;
}

void BM_RasBinaryReadV3(benchmark::State& state) {
  const std::string& path = v3_file();  // synth + write outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(ras::read_binary_file(path));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryReadV3);

void BM_RasBinaryReadV3Pushdown(benchmark::State& state) {
  // The paper's canonical slice: a 60-day window of the 237-day log. Zone
  // maps let the reader skip whole blocks of it without decoding.
  const std::string& path = v3_file();
  const synth::ScenarioConfig cfg = synth::intrepid_scenario(42);
  ras::ReadOptions opts;
  opts.predicate.time_begin = cfg.start + 90 * kUsecPerDay;
  opts.predicate.time_end = cfg.start + 150 * kUsecPerDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ras::read_binary_file(path, ras::default_catalog(), opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryReadV3Pushdown);

}  // namespace
