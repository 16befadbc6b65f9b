// `archive`: the analyst's v3 store, one client thread, closed loop.
//
// Set-up generates the 237-day Intrepid pair, writes it as v3 files, mines
// a rule table, and computes every reference: the pair analysed without a
// pool, its replayed predictions, and each 60-day window sliced from the
// generated logs without zone-map help. The timed phase repeats a fixed
// cycle of three op types:
//   full    v3 files (mmap + pool) -> run_coanalysis -> predict::replay
//   window  the same reads under a 60-day ReadPredicate -> run_coanalysis
//   write   the pair -> v3 files (pooled RAS encode, default WriteOptions)
// Store decode dominates full and window; window alone exercises zone-map
// skipping; write drives the codec from the other side, so a codec change
// that trades write time or file size for read speed shows here.
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "analysis.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/predict/miner.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/synth/intrepid.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace coral;

constexpr const char* kReadRas = "ras::read_binary_file";
constexpr const char* kReadJobs = "joblog::read_binary";
constexpr const char* kWriteRas = "ras::write_binary";
constexpr const char* kWriteJobs = "joblog::write_binary";
constexpr const char* kReplay = "predict::replay";

/// One op cycle: F = full, W = window, R = write. Weighted towards full,
/// the headline op, so a short run still gathers a full tail.
constexpr const char kCycle[] = "FWFWFWFWFR";

struct Window {
  bin::ReadPredicate predicate;
  std::uint64_t log_fp = 0;
  Reference ref;
};

struct Store {
  ras::RasLog ras;
  joblog::JobLog jobs;
  std::filesystem::path ras_path, job_path, out_ras_path, out_job_path;
  std::uint64_t ras_bytes = 0;
  std::uint64_t job_bytes = 0;
  std::uint64_t log_fp = 0;
  Reference full;
  predict::RuleTable rules;
  std::vector<predict::Prediction> predictions;
  std::vector<Window> windows;
  int days = 0;
};

/// The window slice of a pair taken by a plain scan with the pushdown
/// predicate's semantics: RAS event_time in [begin, end); jobs whose
/// [start, end] overlaps it. The job log keeps the full string tables, as
/// the reader does.
std::pair<ras::RasLog, joblog::JobLog> slice(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                             TimePoint begin, TimePoint end) {
  std::vector<ras::RasEvent> events;
  for (const ras::RasEvent& ev : ras) {
    if (ev.event_time >= begin && ev.event_time < end) events.push_back(ev);
  }
  joblog::JobLog part(jobs.machine());
  for (const std::string& s : jobs.exec_files()) part.intern_exec(s);
  for (const std::string& s : jobs.users()) part.intern_user(s);
  for (const std::string& s : jobs.projects()) part.intern_project(s);
  for (const joblog::JobRecord& j : jobs) {
    if (j.end_time >= begin && j.start_time < end) part.append(j);
  }
  part.finalize();
  return {ras::RasLog(std::move(events), ras.catalog(), ras.machine()), std::move(part)};
}

void write_pair(const ras::RasLog& ras, const joblog::JobLog& jobs,
                const std::filesystem::path& ras_path, const std::filesystem::path& job_path,
                par::ThreadPool& pool, obs::Collector* t) {
  std::ofstream ras_out(ras_path, std::ios::binary | std::ios::trunc);
  std::ofstream job_out(job_path, std::ios::binary | std::ios::trunc);
  traced(t, kWriteRas, [&] {
    ras::WriteOptions opts;
    opts.pool = &pool;
    ras::write_binary(ras_out, ras, opts);
    ras_out.close();
  });
  traced(t, kWriteJobs, [&] {
    joblog::write_binary(job_out, jobs, joblog::WriteOptions{});
    job_out.close();
  });
  if (!ras_out || !job_out) throw std::runtime_error("store write failed");
}

struct Pair {
  ras::RasLog ras;
  joblog::JobLog jobs;
};

Pair read_pair(const Store& st, const bin::ReadPredicate& predicate, par::ThreadPool& pool,
               obs::Collector* t, const std::filesystem::path& ras_path,
               const std::filesystem::path& job_path) {
  Pair p;
  p.ras = traced(t, kReadRas, [&] {
    ras::ReadOptions opts;
    opts.pool = &pool;
    opts.predicate = predicate;
    return ras::read_binary_file(ras_path.string(), st.ras.catalog(), opts);
  });
  p.jobs = traced(t, kReadJobs, [&] {
    std::ifstream in(job_path, std::ios::binary);
    joblog::ReadOptions opts;
    opts.predicate = predicate;
    return joblog::read_binary(in, opts);
  });
  return p;
}

std::unique_ptr<Store> make_store(const Options& opt, std::uint64_t seed,
                                  par::ThreadPool& pool, SetupTimes& times) {
  auto st = std::make_unique<Store>();
  const std::filesystem::path dir(opt.store_dir);
  st->ras_path = dir / "ras.v3";
  st->job_path = dir / "jobs.v3";
  st->out_ras_path = dir / "write_ras.v3";
  st->out_job_path = dir / "write_jobs.v3";

  Clock::time_point t0 = Clock::now();
  const synth::ScenarioConfig scenario =
      opt.tiny ? synth::small_scenario(seed) : synth::intrepid_scenario(seed);
  synth::SynthResult data = synth::generate(scenario);
  st->ras = std::move(data.ras);
  st->jobs = std::move(data.jobs);
  st->days = scenario.days;
  times.generate_s = seconds_since(t0);

  t0 = Clock::now();
  write_pair(st->ras, st->jobs, st->ras_path, st->job_path, pool, nullptr);
  st->ras_bytes = std::filesystem::file_size(st->ras_path);
  st->job_bytes = std::filesystem::file_size(st->job_path);
  times.write_s = seconds_since(t0);

  t0 = Clock::now();
  st->log_fp = fleet::log_fingerprint(st->ras, st->jobs);
  const core::CoAnalysisResult serial = core::run_coanalysis(st->ras, st->jobs);
  st->full = Reference::of(serial);
  const Clock::time_point m0 = Clock::now();
  st->rules = predict::mine_rules(serial, st->jobs);
  times.mine_ms = ms_since(m0);
  st->predictions = predict::replay(st->rules, st->ras);
  const int span = opt.tiny ? 6 : 60;
  const int step = opt.tiny ? 3 : 30;
  for (int d = 0; d < st->days - step; d += step) {
    Window w;
    const TimePoint begin = scenario.start + static_cast<Usec>(d) * kUsecPerDay;
    const TimePoint end = begin + static_cast<Usec>(span) * kUsecPerDay;
    w.predicate.time_begin = begin;
    w.predicate.time_end = end;
    const auto [ras, jobs] = slice(st->ras, st->jobs, begin, end);
    w.log_fp = fleet::log_fingerprint(ras, jobs);
    w.ref = Reference::of(core::run_coanalysis(ras, jobs));
    st->windows.push_back(std::move(w));
  }
  times.reference_s = seconds_since(t0) - times.mine_ms / 1000;
  return st;
}

void damage_store(const std::filesystem::path& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const auto mid = static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
  f.seekg(mid);
  char c = 0;
  f.get(c);
  f.seekp(mid);
  f.put(static_cast<char>(c ^ 0x5A));
}

/// The stated input size of the full op's gated CPU time, its printed
/// latency and the peak RSS: each is scaled to a pair of this many RAS +
/// job records (the seed-42 Intrepid pair has 2,031,439), since seeds
/// generate years of different size.
constexpr double kStatedRecords = 2e6;

/// Per-op-type accounting of the timed phase (untraced ops only).
struct Tally {
  Samples full, window, write;
  Samples full_scaled;      ///< full latency at kStatedRecords
  Samples full_cpu_scaled;  ///< full CPU time at kStatedRecords
  double records = 0;
  double op_seconds = 0;
  double cpu_seconds = 0;

  void add(Samples& s, const OpClock& clock, double ms, double recs) {
    s.add(ms);
    records += recs;
    op_seconds += ms / 1000;
    cpu_seconds += clock.cpu_ms() / 1000;
  }
};

}  // namespace

void run_archive(const Options& opt, Report& report) {
  par::ThreadPool pool(nproc());
  const std::unique_ptr<Store> store = set_up(report, opt.seed, [&](SetupTimes& t, auto seed) {
    return make_store(opt, seed, pool, t);
  });
  Store& st = *store;
  if (opt.inject == Inject::DamageStore) damage_store(st.ras_path);
  if (opt.inject == Inject::WrongReference) st.full.result_fp ^= 1;

  const std::size_t fatal = st.ras.summary().fatal_records;
  const double store_bytes = static_cast<double>(st.ras_bytes + st.job_bytes);
  const double store_records = static_cast<double>(st.ras.size() + st.jobs.size());
  report.line("input: machine=bgp scenario=%s seed=%llu days=%d ras_records=%zu fatal=%zu "
              "(%.2f%%) jobs=%zu windows=%zu",
              opt.tiny ? "small_scenario" : "intrepid_scenario",
              static_cast<unsigned long long>(opt.seed), st.days, st.ras.size(), fatal,
              100.0 * static_cast<double>(fatal) / static_cast<double>(st.ras.size()),
              st.jobs.size(), st.windows.size());
  report.line("input: store=v3 ras_bytes=%llu job_bytes=%llu rules=%zu predictions=%zu",
              static_cast<unsigned long long>(st.ras_bytes),
              static_cast<unsigned long long>(st.job_bytes), st.rules.size(),
              st.predictions.size());
  print_host(report, opt.store_dir, pool.thread_count());

  Context ctx;
  ctx.with_pool(&pool);
  obs::Collector warm_trace, trace;
  Tally tally;
  Samples traced_full;
  std::vector<double> window_records;
  std::size_t next_window = 0;

  const auto full_op = [&](obs::Collector* t, bool timed) {
    return guarded(report, "full", [&] {
      OpClock clock(t, "full");
      Pair p = read_pair(st, {}, pool, t, st.ras_path, st.job_path);
      const core::CoAnalysisResult res = analyse(t, p.ras, p.jobs, {}, ctx);
      const std::vector<predict::Prediction> preds =
          traced(t, kReplay, [&] { return predict::replay(st.rules, p.ras); });
      const double ms = clock.stop();
      const bool ok = fleet::log_fingerprint(p.ras, p.jobs) == st.log_fp &&
                      st.full.matches(res) && preds == st.predictions;
      if (ok && timed) {
        if (t != nullptr) {
          traced_full.add(ms);
        } else {
          tally.add(tally.full, clock, ms, store_records);
          tally.full_scaled.add(ms * kStatedRecords / store_records);
          tally.full_cpu_scaled.add(clock.cpu_ms() * kStatedRecords / store_records);
        }
      }
      return ok;
    });
  };
  const auto window_op = [&](obs::Collector* t, bool timed) {
    const Window& w = st.windows[next_window++ % st.windows.size()];
    return guarded(report, "window", [&] {
      OpClock clock(t, "window");
      Pair p = read_pair(st, w.predicate, pool, t, st.ras_path, st.job_path);
      const core::CoAnalysisResult res = analyse(t, p.ras, p.jobs, {}, ctx);
      const double ms = clock.stop();
      const bool ok =
          fleet::log_fingerprint(p.ras, p.jobs) == w.log_fp && w.ref.matches(res);
      if (ok && timed && t == nullptr) {
        tally.add(tally.window, clock, ms, static_cast<double>(p.ras.size() + p.jobs.size()));
      }
      if (ok && timed && t != nullptr) window_records.push_back(static_cast<double>(p.ras.size()));
      return ok;
    });
  };
  const auto write_op = [&](obs::Collector* t, bool timed) {
    return guarded(report, "write", [&] {
      // Each write creates fresh files, as an analyst writes a new store;
      // dropping the previous files' blocks is not part of the op.
      std::filesystem::remove(st.out_ras_path);
      std::filesystem::remove(st.out_job_path);
      OpClock clock(t, "write");
      write_pair(st.ras, st.jobs, st.out_ras_path, st.out_job_path, pool, t);
      const double ms = clock.stop();
      // Read back outside the timed region, through the unfiltered reader.
      const Pair back = read_pair(st, {}, pool, nullptr, st.out_ras_path, st.out_job_path);
      const bool ok = fleet::log_fingerprint(back.ras, back.jobs) == st.log_fp &&
                      std::filesystem::file_size(st.out_ras_path) == st.ras_bytes &&
                      std::filesystem::file_size(st.out_job_path) == st.job_bytes;
      if (ok && timed && t == nullptr) tally.add(tally.write, clock, ms, store_records);
      return ok;
    });
  };
  const auto cycle = [&](obs::Collector* t, bool timed) {
    for (const char* c = kCycle; *c != '\0'; ++c) {
      if (*c == 'F') full_op(t, timed);
      if (*c == 'W') window_op(t, timed);
      if (*c == 'R') write_op(t, timed);
    }
  };

  // Warm-up: one op of each type, untraced and (in a traced run) traced;
  // timings and spans discarded, outputs still checked.
  const auto warm_up = [&](obs::Collector* t) {
    full_op(t, false);
    window_op(t, false);
    write_op(t, false);
  };
  warm_up(nullptr);
  if (opt.trace) warm_up(&warm_trace);
  next_window = 0;
  const std::uint64_t ops_before = report.attempted();
  const TimedPhase phase;
  std::uint64_t cycles = 0;
  while (phase.elapsed_s() < opt.seconds || cycles == 0) {
    // A traced run alternates untraced and traced cycles, so both see the
    // same drift and the overhead is their p50 difference.
    cycle(opt.trace && cycles % 2 == 1 ? &trace : nullptr, true);
    ++cycles;
  }
  const double elapsed = phase.finish(report, kStatedRecords / store_records);

  report.line("timed phase: %.2f s, %llu cycles of %s, %llu ops (%llu warm-up ops before)",
              elapsed, static_cast<unsigned long long>(cycles), kCycle,
              static_cast<unsigned long long>(report.attempted() - ops_before),
              static_cast<unsigned long long>(ops_before));
  report.latency("full", tally.full);
  report.latency("window", tally.window);
  report.latency("write", tally.write);
  report.line("metric store_bytes_per_record %.4f B/record", store_bytes / store_records);
  report.line("metric records_per_s %.0f records/s (all op types)",
              tally.records / tally.op_seconds);
  report.line("metric op_p50_ms %.3f ms (full scaled to %.0f records)",
              tally.full_scaled.p50(), kStatedRecords);
  report.line("metric op_cpu_ms %.3f ms (full, p50 process CPU scaled to %.0f records)",
              tally.full_cpu_scaled.p50(), kStatedRecords);
  report.line("metric records_per_cpu_s %.0f records/cpu_s (all op types)",
              tally.records / tally.cpu_seconds);
  report.end_to_end("op_cpu_ms", tally.full_cpu_scaled.p50());
  report.end_to_end("records_per_cpu_s", tally.records / tally.cpu_seconds);

  if (!opt.trace) return;
  const obs::Snapshot snap = trace.snapshot();
  write_trace(snap, opt.trace_out);
  const std::vector<TracedOp> full = traced_ops(snap, "full");
  const std::vector<TracedOp> window = traced_ops(snap, "window");
  const std::vector<TracedOp> write = traced_ops(snap, "write");
  print_table(report, full, "full");
  print_table(report, window, "window");
  print_table(report, write, "write");
  report.layer("ras.read_ms", self_p50(full, {kReadRas}));
  report.layer("ras.read_window_ms", self_p50(window, {kReadRas}));
  report.layer("ras.write_ms", self_p50(write, {kWriteRas}));
  report.layer("ras.records", static_cast<double>(st.ras.size()));
  report.layer("ras.window_records", Samples(window_records).p50());
  report.layer("ras.bytes_written", static_cast<double>(st.ras_bytes));
  report.layer("joblog.read_ms", self_p50(full, {kReadJobs}));
  report.layer("joblog.read_window_ms", self_p50(window, {kReadJobs}));
  report.layer("joblog.write_ms", self_p50(write, {kWriteJobs}));
  report.layer("joblog.bytes_written", static_cast<double>(st.job_bytes));
  report_analysis_layers(report, full);
  report.layer("core.window_analysis_ms",
               self_p50(window, {kFrontEnd, kIdentify, kCharColumns, kClassify, kJobFilter,
                                 kPropagation, kVulnerability, kInterarrivalSeconds,
                                 kFitInterarrivals, kDailyCounter, kMidplaneTallies}));
  report.layer("stream.groups", static_cast<double>(st.full.groups));
  report.layer("stream.interruptions", static_cast<double>(st.full.interruptions));
  report.layer("predict.replay_ms", self_p50(full, {kReplay}));
  report.layer("predict.predictions", static_cast<double>(st.predictions.size()));
  report.layer("unattributed.full_ms", unattributed_p50(full));
  report.layer("unattributed.window_ms", unattributed_p50(window));
  report.layer("unattributed.write_ms", unattributed_p50(write));
  report.layer("trace.overhead_pct",
               100.0 * (traced_full.p50() - tally.full.p50()) / tally.full.p50());
}

}  // namespace e2e
