// Microbenchmarks for the RAS-log side of the front end on the full-scale
// log: the FATAL-record gather and the binary v2/v3 readers and writers.
// The filter stages themselves are timed inside the streaming front end
// (perf_streaming, BM_FullCoAnalysis). Every series runs on the calling
// thread, so gbench's default cpu_time covers all of its work. The writers
// write into a counting sink and the v2 reader reads a stream built before
// the timed loop, so each series times the library, not a copy of its
// image.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>

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

/// A stream buffer that keeps only the count of the bytes written to it.
class CountingSink : public std::streambuf {
 public:
  std::size_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t bytes_ = 0;
};

/// Time ras::write_binary of the full log with `opts` into a CountingSink.
void time_write(benchmark::State& state, const ras::WriteOptions& opts) {
  (void)data();
  for (auto _ : state) {
    CountingSink sink;
    std::ostream out(&sink);
    ras::write_binary(out, data().ras, opts);
    benchmark::DoNotOptimize(sink.bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}

void BM_RasBinaryWrite(benchmark::State& state) { time_write(state, {.version = 2}); }
BENCHMARK(BM_RasBinaryWrite);

void BM_RasBinaryRead(benchmark::State& state) {
  std::ostringstream out;
  ras::write_binary(out, data().ras, {.version = 2});
  std::istringstream in(std::move(out).str());
  for (auto _ : state) {
    in.clear();
    in.seekg(0);
    benchmark::DoNotOptimize(ras::read_binary(in));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryRead);

void BM_RasBinaryWriteV3(benchmark::State& state) { time_write(state, {}); }
BENCHMARK(BM_RasBinaryWriteV3);

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
