// `sweep`: the paper's threshold-sensitivity study, one client thread,
// closed loop. Set-up generates the Intrepid pair and keeps it decoded in
// memory, then runs every config serially as the reference. The timed
// phase cycles run_coanalysis (Context pool) over temporal = spatial
// threshold x match window, the paper's 300 s / 120 s among them. All of
// the work is in the stream front-end and the core stages and none in
// decode, so analysis changes show at full share here and decode changes
// must show nothing; the grid moves group counts, so the stages see
// different input sizes.
#include <memory>

#include "analysis.hpp"
#include "coral/synth/intrepid.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace coral;

constexpr Usec kThresholdsSec[] = {60, 120, 300, 600, 1800};
constexpr Usec kWindowsSec[] = {30, 120, 300, 900};

/// The stated input size of an analysis's gated CPU time and printed
/// latency. An analysis reads only the FATAL RAS records and the jobs, and
/// its time tracks their sum closely across seeds, while that sum differs
/// by tens of percent between seeds; each op's times are scaled to this
/// many analysed records (the seed-42 Intrepid pair has 104,944).
constexpr double kStatedRecords = 1e5;

/// The stated resident size of the gated peak RSS, which is mostly the
/// resident pair: RAS + job records, as in `archive`.
constexpr double kStatedResident = 2e6;

struct Resident {
  ras::RasLog ras;
  joblog::JobLog jobs;
  std::vector<core::CoAnalysisConfig> configs;
  std::vector<Reference> refs;
  int days = 0;
  double analysed = 0;  ///< FATAL RAS records + jobs: an analysis's input
  double resident = 0;  ///< RAS + job records held in memory
};

std::unique_ptr<Resident> make_resident(const Options& opt, std::uint64_t seed,
                                        SetupTimes& times) {
  auto st = std::make_unique<Resident>();
  Clock::time_point t0 = Clock::now();
  const synth::ScenarioConfig scenario =
      opt.tiny ? synth::small_scenario(seed) : synth::intrepid_scenario(seed);
  synth::SynthResult data = synth::generate(scenario);
  st->ras = std::move(data.ras);
  st->jobs = std::move(data.jobs);
  st->days = scenario.days;
  st->analysed = static_cast<double>(st->ras.fatal_columns().size() + st->jobs.size());
  st->resident = static_cast<double>(st->ras.size() + st->jobs.size());
  times.generate_s = seconds_since(t0);

  t0 = Clock::now();
  for (const Usec threshold : kThresholdsSec) {
    for (const Usec window : kWindowsSec) {
      core::CoAnalysisConfig config;
      config.filters.temporal.threshold = threshold * kUsecPerSec;
      config.filters.spatial.threshold = threshold * kUsecPerSec;
      config.matching.window = window * kUsecPerSec;
      st->refs.push_back(Reference::of(core::run_coanalysis(st->ras, st->jobs, config)));
      st->configs.push_back(config);
    }
  }
  times.reference_s = seconds_since(t0);
  return st;
}

}  // namespace

void run_sweep(const Options& opt, Report& report) {
  par::ThreadPool pool(nproc());
  const std::unique_ptr<Resident> resident = set_up(
      report, opt.seed, [&](SetupTimes& t, auto seed) { return make_resident(opt, seed, t); });
  Resident& st = *resident;
  if (opt.inject == Inject::WrongReference) st.refs[3].result_fp ^= 1;

  const std::size_t fatal = st.ras.summary().fatal_records;
  report.line("input: machine=bgp scenario=%s seed=%llu days=%d ras_records=%zu fatal=%zu "
              "(%.2f%%) jobs=%zu configs=%zu (resident, no store)",
              opt.tiny ? "small_scenario" : "intrepid_scenario",
              static_cast<unsigned long long>(opt.seed), st.days, st.ras.size(), fatal,
              100.0 * static_cast<double>(fatal) / static_cast<double>(st.ras.size()),
              st.jobs.size(), st.configs.size());
  print_host(report, opt.store_dir, pool.thread_count());

  Context ctx;
  ctx.with_pool(&pool);
  obs::Collector warm_trace, trace;
  Samples untraced, scaled, traced_ops_ms, cpu_scaled;
  double op_seconds = 0;
  double cpu_seconds = 0;
  double op_records = 0;

  const auto op = [&](std::size_t i, obs::Collector* t, bool timed) {
    guarded(report, "analysis", [&] {
      OpClock clock(t, "analysis");
      const core::CoAnalysisResult res = analyse(t, st.ras, st.jobs, st.configs[i], ctx);
      const double ms = clock.stop();
      const bool ok = st.refs[i].matches(res);
      if (ok && timed && t != nullptr) traced_ops_ms.add(ms);
      if (ok && timed && t == nullptr) {
        untraced.add(ms);
        scaled.add(ms * kStatedRecords / st.analysed);
        cpu_scaled.add(clock.cpu_ms() * kStatedRecords / st.analysed);
        op_seconds += ms / 1000;
        cpu_seconds += clock.cpu_ms() / 1000;
        op_records += st.analysed;
      }
      return ok;
    });
  };
  // One pass runs every config once, so each weighs the same.
  const auto pass = [&](obs::Collector* t, bool timed) {
    for (std::size_t i = 0; i < st.configs.size(); ++i) op(i, t, timed);
  };
  // Warm-up: one untraced pass (and one traced pass in a traced run),
  // timings and spans discarded, outputs checked.
  pass(nullptr, false);
  if (opt.trace) pass(&warm_trace, false);
  const std::uint64_t ops_before = report.attempted();
  const TimedPhase phase;
  std::uint64_t passes = 0;
  while (phase.elapsed_s() < opt.seconds || passes == 0) {
    // A traced run alternates untraced and traced passes.
    pass(opt.trace && passes % 2 == 1 ? &trace : nullptr, true);
    ++passes;
  }
  const double elapsed = phase.finish(report, kStatedResident / st.resident);
  report.line("timed phase: %.2f s, %llu passes, %llu ops (%llu warm-up ops before)",
              elapsed, static_cast<unsigned long long>(passes),
              static_cast<unsigned long long>(report.attempted() - ops_before),
              static_cast<unsigned long long>(ops_before));
  report.latency("analysis", untraced);
  const double rate = op_records / op_seconds;
  report.line("metric records_per_s %.0f records/s (FATAL RAS + job records analysed)", rate);
  report.line("metric op_p50_ms %.3f ms (scaled to %.0f analysed records)", scaled.p50(),
              kStatedRecords);
  report.line("metric op_cpu_ms %.3f ms (p50 process CPU scaled to %.0f analysed records)",
              cpu_scaled.p50(), kStatedRecords);
  report.line("metric records_per_cpu_s %.0f records/cpu_s", op_records / cpu_seconds);
  report.end_to_end("op_cpu_ms", cpu_scaled.p50());
  report.end_to_end("records_per_cpu_s", op_records / cpu_seconds);

  if (!opt.trace) return;
  const obs::Snapshot snap = trace.snapshot();
  write_trace(snap, opt.trace_out);
  const std::vector<TracedOp> ops = traced_ops(snap, "analysis");
  print_table(report, ops, "analysis");
  report_analysis_layers(report, ops);
  // Counts at the paper's config (300 s thresholds, 120 s window).
  const Reference& paper = st.refs[2 * std::size(kWindowsSec) + 1];
  report.layer("stream.groups", static_cast<double>(paper.groups));
  report.layer("stream.interruptions", static_cast<double>(paper.interruptions));
  report.layer("unattributed.analysis_ms", unattributed_p50(ops));
  report.layer("trace.overhead_pct",
               100.0 * (traced_ops_ms.p50() - untraced.p50()) / untraced.p50());
}

}  // namespace e2e
