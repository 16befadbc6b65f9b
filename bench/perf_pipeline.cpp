// End-to-end co-analysis benchmark on the full-scale Intrepid scenario:
// binary ingest -> filter -> match -> full methodology report, timed as one
// unit — the headline figure for the columnar hot path. Ingest reads the v3
// store from files the way an analyst opens an archive (the RAS log mmap'd
// and decoded over the pool), after a first read has put the files in the
// page cache, so the numbers measure decode and analysis, not disk.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>

#include "coral/common/parallel.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/stream/coanalysis.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::intrepid_scenario(42));
  return result;
}

/// The scenario pair as v3 files in the temp directory, written once.
struct StorePaths {
  std::string ras, jobs;
};

const StorePaths& v3_store() {
  static const StorePaths paths = [] {
    const std::filesystem::path dir = std::filesystem::temp_directory_path();
    StorePaths p{(dir / "perf_pipeline_ras.v3").string(),
                 (dir / "perf_pipeline_jobs.v3").string()};
    std::ofstream ras_out(p.ras, std::ios::binary | std::ios::trunc);
    ras::write_binary(ras_out, data().ras, {});
    std::ofstream job_out(p.jobs, std::ios::binary | std::ios::trunc);
    joblog::write_binary(job_out, data().jobs, {});
    return p;
  }();
  return paths;
}

// --- Job-log finalize ------------------------------------------------------
// Sort, end-order index, interval index, job columns, resubmission chains
// and summary: the set-up cost a finalized log pays once so every analysis
// of it can read the columns. Timed on a copy of the generated log, which
// arrives in start order as a decoded log does.
void BM_JobLogFinalize(benchmark::State& state) {
  const joblog::JobLog& source = data().jobs;
  for (auto _ : state) {
    state.PauseTiming();
    joblog::JobLog log = source;
    state.ResumeTiming();
    log.finalize();
    benchmark::DoNotOptimize(log.columns().chain_job.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source.size()));
}
BENCHMARK(BM_JobLogFinalize)->Unit(benchmark::kMillisecond);

// --- Characterization-stage microbenchmarks -----------------------------
// The four stages downstream of matching, timed on the shared columnar
// inputs the pipeline passes them (CharColumns built once, like
// complete_coanalysis does), plus the column build itself. All run
// single-threaded so the numbers track the kernels, not the pool.

const stream::FrontEndResult& front_end() {
  static const stream::FrontEndResult result =
      stream::run_streaming_frontend(data().ras, data().jobs, {});
  return result;
}

const filter::FilterPipelineResult& filtered() { return front_end().filtered; }

const core::MatchResult& matches() { return front_end().matches; }

const core::IdentificationResult& identification() {
  static const core::IdentificationResult result =
      core::identify_interruption_related(filtered(), matches(), data().jobs, {});
  return result;
}

const core::CharColumns& char_columns() {
  static const core::CharColumns result =
      core::build_char_columns(filtered(), matches(), data().jobs);
  return result;
}

const core::ClassificationResult& classification() {
  static const core::ClassificationResult result = core::classify_causes(
      filtered(), matches(), identification(), data().jobs, char_columns());
  return result;
}

void BM_CharColumns(benchmark::State& state) {
  (void)matches();
  for (auto _ : state) {
    const core::CharColumns cols =
        core::build_char_columns(filtered(), matches(), data().jobs);
    benchmark::DoNotOptimize(cols.job_group.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().jobs.size()));
}
BENCHMARK(BM_CharColumns)->Unit(benchmark::kMillisecond);

void BM_Classification(benchmark::State& state) {
  (void)identification();
  (void)char_columns();
  for (auto _ : state) {
    const core::ClassificationResult result = core::classify_causes(
        filtered(), matches(), identification(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.by_code.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(identification().verdicts.size()));
}
BENCHMARK(BM_Classification)->Unit(benchmark::kMillisecond);

void BM_JobFilter(benchmark::State& state) {
  (void)classification();
  for (auto _ : state) {
    const core::JobFilterResult result = core::job_related_filter(
        filtered(), matches(), classification(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.kept.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(filtered().groups.size()));
}
BENCHMARK(BM_JobFilter)->Unit(benchmark::kMillisecond);

void BM_Propagation(benchmark::State& state) {
  (void)char_columns();
  for (auto _ : state) {
    const core::PropagationResult result =
        core::analyze_propagation(filtered(), matches(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.propagating_groups.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(matches().interruptions.size()));
}
BENCHMARK(BM_Propagation)->Unit(benchmark::kMillisecond);

void BM_Vulnerability(benchmark::State& state) {
  (void)classification();
  for (auto _ : state) {
    const core::VulnerabilityResult result = core::analyze_vulnerability(
        filtered(), matches(), classification(), data().jobs, char_columns());
    benchmark::DoNotOptimize(result.grid.total.total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().jobs.size()));
}
BENCHMARK(BM_Vulnerability)->Unit(benchmark::kMillisecond);

void BM_EndToEndCoAnalysis(benchmark::State& state) {
  const StorePaths& store = v3_store();
  par::ThreadPool pool;
  const Context ctx = Context{}.with_pool(&pool);
  ras::ReadOptions ras_opts;
  ras_opts.pool = &pool;
  std::size_t interruptions = 0;
  for (auto _ : state) {
    const ras::RasLog ras =
        ras::read_binary_file(store.ras, ras::default_catalog(), ras_opts);
    std::ifstream job_in(store.jobs, std::ios::binary);
    const joblog::JobLog jobs = joblog::read_binary(job_in, joblog::ReadOptions{});
    const core::CoAnalysisResult result = core::run_coanalysis(ras, jobs, {}, ctx);
    interruptions = result.interruption_count();
    benchmark::DoNotOptimize(result.matches.interruptions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
  state.counters["interruptions"] = static_cast<double>(interruptions);
}
// Reads and analyses on a pool: measured as process CPU, workers included.
BENCHMARK(BM_EndToEndCoAnalysis)->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();

}  // namespace
