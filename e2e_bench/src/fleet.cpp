// `fleet`: the resident multi-tenant daemon. Set-up generates three
// tenants' log pairs, encodes their payloads, computes offline reference
// fingerprints from the generated logs, and starts an in-process
// fleet::Daemon with the default DaemonConfig (loopback, ephemeral ports,
// no analysis pool, no rules). Each round, three feeder threads — one
// WireClient connection each — handshake a fresh tenant, send its bytes in
// 1 MiB slices of 64 KiB messages with a flush() after every slice, then
// finalize(). This is the only workload that crosses the wire framing,
// incremental decode of both payload formats and the daemon's finalize,
// which runs without a pool and serialized across tenants — archive and
// sweep bypass all of it.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "coral/fleet/client.hpp"
#include "coral/fleet/daemon.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/synth/packs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace coral;

constexpr std::size_t kSliceBytes = std::size_t{1} << 20;
constexpr std::size_t kMessageBytes = std::size_t{64} << 10;

/// The stated fleet size of the gated CPU cost and the printed finalize
/// latency. With three feeders queued on the daemon-wide finalize lock, a
/// finalize RTT is about one lock cycle — every tenant's analysis — and
/// that tracks the FATAL RAS + job records of the three tenants, which
/// differ by tens of percent between seeds; the p50 is scaled to this many
/// over the three.
constexpr double kStatedAnalysed = 5e5;

constexpr const char* kConnect = "fleet::WireClient::WireClient";
constexpr const char* kHandshake = "fleet::WireClient::handshake";
constexpr const char* kSend = "fleet::WireClient::send_data";
constexpr const char* kFlush = "fleet::WireClient::flush";
constexpr const char* kFinalize = "fleet::WireClient::finalize";
constexpr const char* kClose = "fleet::WireClient::close";
constexpr const char* kSessionFeed = "stream::Session::feed";
constexpr const char* kSessionPump = "stream::Session::pump";
constexpr const char* kSessionFlush = "stream::Session::flush";
constexpr const char* kSessionFinalize = "stream::Session::finalize";

struct Tenant {
  const char* label;
  const char* machine_name;
  const machine::MachineModel* machine;
  std::uint32_t format;  ///< payload version: 2 or 3
  int days = 0;
  std::size_t ras_records = 0;
  std::size_t fatal = 0;
  std::size_t job_records = 0;
  double analysed = 0;  ///< FATAL RAS records + jobs: the finalize's input
  std::string ras_bytes;
  std::string job_bytes;
  std::uint64_t log_fp = 0;
  std::uint64_t result_fp = 0;
};

synth::ScenarioConfig scenario_for(const Tenant& t, const Options& opt, std::uint64_t seed) {
  const std::string_view label = t.label;
  if (label == "base") return synth::base_scenario(*t.machine, seed, opt.tiny ? 5 : 120);
  synth::ScenarioConfig config = synth::pack_scenario(*t.machine, label, seed, opt.tiny ? 5 : 120);
  // multi_year_drift carries its own 730-day horizon; tiny runs shrink it.
  if (opt.tiny) config.days = std::min(config.days, 30);
  return config;
}

/// The three tenants' log pairs, payloads and references.
std::vector<Tenant> make_tenants(const Options& opt, std::uint64_t seed, SetupTimes& times) {
  std::vector<Tenant> tenants = {{"base", "bgp", &machine::bgp_model(), 2},
                                 {"failure_storm", "bgp", &machine::bgp_model(), 2},
                                 {"multi_year_drift", "bgq", &machine::bgq_model(), 3}};
  for (Tenant& t : tenants) {
    Clock::time_point t0 = Clock::now();
    const synth::ScenarioConfig scenario = scenario_for(t, opt, seed);
    Context ctx;
    ctx.with_machine(*t.machine);
    const synth::SynthResult data = synth::generate(scenario, ctx);
    t.days = scenario.days;
    times.generate_s += seconds_since(t0);

    t0 = Clock::now();
    std::ostringstream ras_out, job_out;
    // The v2 writer only builds the two v2 payloads (see README.md).
    ras::write_binary(ras_out, data.ras, ras::WriteOptions{.version = t.format});
    joblog::write_binary(job_out, data.jobs, joblog::WriteOptions{.version = t.format});
    t.ras_bytes = std::move(ras_out).str();
    t.job_bytes = std::move(job_out).str();
    times.write_s += seconds_since(t0);

    t0 = Clock::now();
    t.ras_records = data.ras.size();
    t.fatal = data.ras.summary().fatal_records;
    t.job_records = data.jobs.size();
    t.analysed = static_cast<double>(t.fatal + t.job_records);
    t.log_fp = fleet::log_fingerprint(data.ras, data.jobs);
    t.result_fp = fleet::result_fingerprint(core::run_coanalysis(data.ras, data.jobs, {}, ctx));
    times.reference_s += seconds_since(t0);
  }
  return tenants;
}

/// One feeder's tenant round, as the feeder sees it.
struct TenantRound {
  std::string error;  ///< empty = every reply checked out
  double wall_ms = 0;
  double ingest_ms = 0;    ///< first send to last flush reply
  double finalize_ms = 0;  ///< finalize request to Complete reply
  double decoded_ratio = 0;
  bool traced = false;
};

template <typename Fn>
void for_each_message(const Tenant& t, Fn&& fn) {
  const std::pair<stream::Source, std::string_view> feeds[] = {
      {stream::Source::Ras, t.ras_bytes}, {stream::Source::Jobs, t.job_bytes}};
  for (const auto& [src, bytes] : feeds) {
    for (std::size_t off = 0; off < bytes.size(); off += kSliceBytes) {
      fn(src, bytes.substr(off, kSliceBytes));
    }
  }
}

TenantRound feed_tenant(const Tenant& t, const std::string& name, int port,
                        obs::Collector* tr) {
  TenantRound r;
  try {
    OpClock clock(tr, "round");
    auto client = traced(tr, kConnect,
                         [&] { return std::make_unique<fleet::WireClient>("127.0.0.1", port); });
    traced(tr, kHandshake, [&] {
      client->handshake({name, t.machine_name, ParseMode::Strict, false});
    });
    fleet::ReplyFields stats;
    const Clock::time_point feed_start = Clock::now();
    for_each_message(t, [&](stream::Source src, std::string_view slice) {
      traced(tr, kSend, [&] { client->send_data(src, slice, kMessageBytes); });
      stats = traced(tr, kFlush, [&] { return client->flush(); });
    });
    r.ingest_ms = ms_since(feed_start);
    const Clock::time_point fin_start = Clock::now();
    const fleet::ReplyFields reply = traced(tr, kFinalize, [&] { return client->finalize(); });
    r.finalize_ms = ms_since(fin_start);
    traced(tr, kClose, [&] { client->close(); });
    r.wall_ms = clock.stop();
    r.decoded_ratio = std::stod(stats.at("bytes_decoded")) / std::stod(stats.at("bytes_accepted"));
    if (reply.at("result_fp") != hex64(t.result_fp) || reply.at("log_fp") != hex64(t.log_fp) ||
        reply.at("ras_records") != std::to_string(t.ras_records) ||
        reply.at("job_records") != std::to_string(t.job_records)) {
      r.error = "fingerprint mismatch for " + name;
    }
  } catch (const std::exception& e) {
    r.error = name + ": " + e.what();
  }
  return r;
}

/// Replay one tenant's bytes through an in-process stream::Session with
/// the daemon's chunking, session config and per-tenant collector, to
/// split the daemon's server-side work into pump and finalize. Returns the
/// Session::finalize time in ms.
double replay_tenant(const Tenant& t, const std::string& name, obs::Collector* tr,
                     Report& report) {
  double finalize_ms = 0;
  guarded(report, "replay", [&] {
    const fleet::DaemonConfig daemon_defaults;
    obs::Collector collector;
    collector.set_span_capacity(daemon_defaults.span_capacity);
    Context ctx;
    ctx.with_machine(*t.machine).with_obs(&collector);
    stream::SessionConfig config;
    config.mode = ParseMode::Strict;
    config.queue_bytes = daemon_defaults.queue_bytes;
    config.analysis = daemon_defaults.analysis;
    OpClock clock(tr, "replay");
    stream::Session session(name, config, ctx);
    for_each_message(t, [&](stream::Source src, std::string_view slice) {
      for (std::size_t off = 0; off < slice.size(); off += kMessageBytes) {
        const std::string_view msg = slice.substr(off, kMessageBytes);
        // The daemon's admission loop: pump inline until the feed fits.
        while (traced(tr, kSessionFeed, [&] { return session.feed(src, msg); }) ==
               stream::Admission::Rejected) {
          traced(tr, kSessionPump, [&] { return session.pump(); });
        }
        traced(tr, kSessionPump, [&] { return session.pump(); });
      }
      traced(tr, kSessionFlush, [&] { session.flush(); });
    });
    const Clock::time_point f0 = Clock::now();
    const stream::SessionResult res =
        traced(tr, kSessionFinalize, [&] { return session.finalize(); });
    finalize_ms = ms_since(f0);
    clock.stop();
    return fleet::result_fingerprint(res.analysis) == t.result_fp &&
           fleet::log_fingerprint(res.ras, res.jobs) == t.log_fp;
  });
  return finalize_ms;
}

}  // namespace

void run_fleet(const Options& opt, Report& report) {
  std::vector<Tenant> tenants = set_up(
      report, opt.seed, [&](SetupTimes& t, auto seed) { return make_tenants(opt, seed, t); });
  fleet::Daemon daemon{fleet::DaemonConfig{}};
  daemon.start();
  if (opt.inject == Inject::DamageStore) {
    std::string& bytes = tenants[0].ras_bytes;
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  }
  if (opt.inject == Inject::WrongReference) tenants[1].result_fp ^= 1;

  double bytes_per_round = 0;
  double analysed = 0;
  for (const Tenant& t : tenants) {
    report.line("input: tenant=%s machine=%s seed=%llu days=%d ras_records=%zu fatal=%zu "
                "(%.2f%%) jobs=%zu payload=v%u ras_bytes=%zu job_bytes=%zu",
                t.label, t.machine_name, static_cast<unsigned long long>(opt.seed), t.days,
                t.ras_records, t.fatal,
                100.0 * static_cast<double>(t.fatal) / static_cast<double>(t.ras_records),
                t.job_records, t.format, t.ras_bytes.size(), t.job_bytes.size());
    bytes_per_round += static_cast<double>(t.ras_bytes.size() + t.job_bytes.size());
    analysed += t.analysed;
  }
  print_host(report, opt.store_dir, 0);
  report.line("daemon: in-process, pool_threads=0, 3 feeder threads, %zu KiB slices of "
              "%zu KiB messages", kSliceBytes >> 10, kMessageBytes >> 10);

  const std::size_t n = tenants.size();
  // Feeder i's closed loop: a fresh tenant of its own per round, until at
  // least `min_rounds` rounds are done and `seconds` have passed. Feeders
  // run free of each other, so a run averages over many overlaps of one
  // tenant's ingest with another's finalize instead of repeating one.
  const auto run_feeders = [&](const std::string& tag, std::size_t min_rounds, double seconds,
                               obs::Collector* trace) {
    std::vector<std::vector<TenantRound>> logs(n);
    std::vector<std::jthread> feeders;
    for (std::size_t i = 0; i < n; ++i) {
      feeders.emplace_back([&, i] {
        const Clock::time_point start = Clock::now();
        for (std::size_t k = 0; k < min_rounds || seconds_since(start) < seconds; ++k) {
          // A traced run alternates untraced and traced rounds per feeder.
          obs::Collector* t = k % 2 == 1 ? trace : nullptr;
          const std::string name = "f" + std::to_string(i) + "-" + tag + std::to_string(k);
          logs[i].push_back(feed_tenant(tenants[i], name, daemon.wire_port(), t));
          logs[i].back().traced = t != nullptr;
        }
      });
    }
    feeders.clear();  // joins
    return logs;
  };

  // Warm-up: the first rounds feed ~30% slower; discard one per feeder (and
  // one traced round in a traced run).
  obs::Collector warm_trace, trace;
  const auto warm = run_feeders("w", opt.trace ? 2 : 1, 0, opt.trace ? &warm_trace : nullptr);
  for (const auto& log : warm) {
    for (const TenantRound& r : log) report.check(r.error.empty(), "round: " + r.error);
  }
  const std::uint64_t ops_before = report.attempted();
  const TimedPhase phase;
  const std::vector<std::vector<TenantRound>> logs =
      run_feeders("r", 1, opt.seconds, opt.trace ? &trace : nullptr);
  const double elapsed = phase.finish(report);
  const double cpu_s = phase.cpu_s();

  Samples finalize, traced_walls, untraced_walls, finalize_wait;
  std::vector<Samples> per_tenant(n), per_tenant_ingest(n);
  std::vector<double> decoded_ratio;
  double ingest_records = 0;
  double ingest_seconds = 0;
  std::size_t rounds = 0;
  double completed_analysed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Tenant& tenant = tenants[i];
    const double records = static_cast<double>(tenant.ras_records + tenant.job_records);
    for (const TenantRound& r : logs[i]) {
      ++rounds;
      if (!report.check(r.error.empty(), "round: " + r.error)) continue;
      completed_analysed += tenant.analysed;
      if (r.traced) {
        traced_walls.add(r.wall_ms);
        decoded_ratio.push_back(r.decoded_ratio);
        continue;
      }
      finalize.add(r.finalize_ms);
      per_tenant[i].add(r.finalize_ms);
      per_tenant_ingest[i].add(r.ingest_ms);
      untraced_walls.add(r.wall_ms);
      ingest_records += records;
      ingest_seconds += r.ingest_ms / 1000;
    }
  }
  report.line("timed phase: %.2f s, %zu tenant rounds, %llu ops (%llu warm-up ops before), "
              "%llu tenants resident",
              elapsed, rounds,
              static_cast<unsigned long long>(report.attempted() - ops_before),
              static_cast<unsigned long long>(ops_before),
              static_cast<unsigned long long>(daemon.tenants().size()));
  report.latency("finalize", finalize);
  for (std::size_t i = 0; i < n; ++i) {
    report.line("tenant %s: %zu rounds, finalize p50 %.3f ms, ingest p50 %.3f ms",
                tenants[i].label, logs[i].size(), per_tenant[i].p50(),
                per_tenant_ingest[i].p50());
  }
  report.line("metric ingest_records_per_s %.0f records/s", ingest_records / ingest_seconds);
  const double scaled_p50 = finalize.p50() * kStatedAnalysed / analysed;
  report.line("metric op_p50_ms %.3f ms (finalize p50 scaled to %.0f analysed records; this "
              "run's tenants have %.0f)",
              scaled_p50, kStatedAnalysed, analysed);
  report.line("metric records_per_s %.0f records/s (FATAL RAS + job records of tenants fed "
              "and finalized)",
              completed_analysed / elapsed);

  // Rounds overlap, so the process CPU of the timed phase (daemon and
  // feeders) is charged per analysed record fed and finalized: op_cpu_ms
  // is that cost at the stated fleet size. The wall-time rates above swing
  // with how often one tenant's ingest overlaps another's finalize, which
  // the closed loop leaves to chance.
  const double cpu_per_record_ms = 1000 * cpu_s / completed_analysed;
  report.line("metric op_cpu_ms %.3f ms (process CPU per %.0f analysed records fed and "
              "finalized)",
              cpu_per_record_ms * kStatedAnalysed, kStatedAnalysed);
  report.line("metric records_per_cpu_s %.0f records/cpu_s", completed_analysed / cpu_s);
  report.end_to_end("op_cpu_ms", cpu_per_record_ms * kStatedAnalysed);
  report.end_to_end("records_per_cpu_s", completed_analysed / cpu_s);

  if (!opt.trace) return;
  // Outside the daemon's timing: replay each tenant once in-process to
  // split the daemon's server-side work into pump and finalize, and charge
  // each traced finalize RTT the rest.
  for (std::size_t i = 0; i < n; ++i) {
    const double session_finalize =
        replay_tenant(tenants[i], "replay-" + std::to_string(i), &trace, report);
    for (const TenantRound& r : logs[i]) {
      if (r.traced && r.error.empty()) finalize_wait.add(r.finalize_ms - session_finalize);
    }
  }
  const obs::Snapshot snap = trace.snapshot();
  write_trace(snap, opt.trace_out);
  const std::vector<TracedOp> ops = traced_ops(snap, "round");
  const std::vector<TracedOp> replays = traced_ops(snap, "replay");
  print_table(report, ops, "round");
  print_table(report, replays, "replay");
  const Samples flush(span_ms(snap, "round", kFlush));
  report.layer("fleet.send_ms", self_p50(ops, {kSend}));
  report.layer("fleet.flush_p50_ms", flush.p50());
  report.layer("fleet.flush_tail_ms", flush.tail().value);
  report.layer("fleet.finalize_wait_ms", finalize_wait.p50());
  report.layer("fleet.bytes_fed", bytes_per_round);
  report.layer("stream.session_pump_ms",
               self_p50(replays, {kSessionFeed, kSessionPump, kSessionFlush}));
  report.layer("stream.session_finalize_ms", self_p50(replays, {kSessionFinalize}));
  report.layer("stream.decoded_ratio", Samples(decoded_ratio).p50());
  report.layer("unattributed.round_ms", unattributed_p50(ops));
  report.layer("trace.overhead_pct",
               100.0 * (traced_walls.p50() - untraced_walls.p50()) / untraced_walls.p50());
}

}  // namespace e2e
