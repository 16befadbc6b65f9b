// Two-tenant fleet feed: generate a BG/P and a BG/Q log pair, stream both
// to a coral_daemon over the wire protocol from concurrent feeder threads
// (socket-sized chunks, interleaved), scrape live stats mid-run, finalize,
// and verify parity: the daemon's result fingerprint must equal an offline
// read_binary + run_coanalysis over the exact same bytes.
//
//   $ ./example_fleet_feeder            # self-hosts a daemon in-process
//   $ ./example_fleet_feeder 41317      # feeds a coral_daemon on that port
//
//   $ ./coral_daemon &                  # prints "... wire=127.0.0.1:PORT ..."
//   $ ./example_fleet_feeder PORT

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "coral/core/pipeline.hpp"
#include "coral/fleet/client.hpp"
#include "coral/fleet/daemon.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/synth/packs.hpp"

int main(int argc, char** argv) {
  using namespace coral;

  struct Feed {
    const char* tenant;
    const char* machine_name;
    const machine::MachineModel* machine;
    std::string ras_bytes, job_bytes;
    fleet::ReplyFields live, reply;
  };
  Feed feeds[2] = {{"intrepid", "bgp", &machine::bgp_model(), {}, {}, {}, {}},
                   {"mira", "bgq", &machine::bgq_model(), {}, {}, {}, {}}};

  // One calibrated scenario per machine, serialized to the binary-v2 bytes
  // a collector would ship (10 days keeps the example snappy).
  for (Feed& f : feeds) {
    synth::ScenarioConfig scenario = synth::base_scenario(*f.machine, 42, 10);
    Context ctx;
    ctx.with_machine(*f.machine);
    const synth::SynthResult data = synth::generate(scenario, ctx);
    std::ostringstream ras_out, job_out;
    ras::write_binary(ras_out, data.ras, {.version = 2});
    joblog::write_binary(job_out, data.jobs, {.version = 2});
    f.ras_bytes = ras_out.str();
    f.job_bytes = job_out.str();
    std::printf("%-9s %s: %zu RAS records (%zu KiB), %zu jobs (%zu KiB)\n",
                f.tenant, f.machine_name, data.ras.size(), f.ras_bytes.size() / 1024,
                data.jobs.size(), f.job_bytes.size() / 1024);
  }

  // Self-host unless pointed at a running coral_daemon.
  std::unique_ptr<fleet::Daemon> local;
  int port = argc > 1 ? std::atoi(argv[1]) : 0;
  if (port == 0) {
    local = std::make_unique<fleet::Daemon>();
    local->start();
    port = local->wire_port();
    std::printf("self-hosted daemon: wire port %d, metrics port %d\n", port,
                local->metrics_port());
  }

  // Feed both tenants concurrently in 64 KiB chunks — the daemon keeps the
  // two sessions independent, so interleaving cannot change either result.
  // Each thread keeps its mid-run reply; they print in tenant order once
  // both threads have joined, so the output does not depend on which reply
  // came first.
  std::thread feeders[2];
  for (int i = 0; i < 2; ++i) {
    feeders[i] = std::thread([&, i] {
      Feed& f = feeds[i];
      fleet::WireClient client("127.0.0.1", port);
      client.handshake({f.tenant, f.machine_name, ParseMode::Strict});
      client.send_data(stream::Source::Ras, f.ras_bytes, 64 << 10);
      client.send_data(stream::Source::Jobs, f.job_bytes, 64 << 10);
      f.live = client.flush();  // mid-run: not finalized
      // Hold the live (decoded, not finalized) state open on request, so a
      // harness can scrape /metrics mid-run deterministically (CI does).
      if (const char* hold = std::getenv("FLEET_FEEDER_HOLD_MS")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(std::atoi(hold)));
      }
      f.reply = client.finalize();
    });
  }
  for (std::thread& t : feeders) t.join();
  for (const Feed& f : feeds) {
    std::printf("%-9s live: decoded=%s bytes, ras=%s jobs=%s finalized=%s\n", f.tenant,
                f.live.at("bytes_decoded").c_str(), f.live.at("ras_records").c_str(),
                f.live.at("job_records").c_str(), f.live.at("finalized").c_str());
  }

  // Parity: offline read + analysis over the same bytes, same machine.
  int failures = 0;
  for (Feed& f : feeds) {
    std::istringstream ras_in(f.ras_bytes), job_in(f.job_bytes);
    const ras::RasLog ras_log =
        ras::read_binary(ras_in, ras::default_catalog(), {.machine = f.machine});
    const joblog::JobLog job_log = joblog::read_binary(job_in, {.machine = f.machine});
    Context ctx;
    ctx.with_machine(*f.machine);
    const core::CoAnalysisResult offline =
        core::run_coanalysis(ras_log, job_log, {}, ctx);
    char offline_fp[17];
    std::snprintf(offline_fp, sizeof offline_fp, "%016llx",
                  static_cast<unsigned long long>(fleet::result_fingerprint(offline)));
    const std::string& daemon_fp = f.reply.at("result_fp");
    const bool ok = daemon_fp == offline_fp;
    failures += ok ? 0 : 1;
    std::printf("%-9s daemon fp=%s offline fp=%s  %s  (%s system + %s app "
                "interruptions)\n",
                f.tenant, daemon_fp.c_str(), offline_fp, ok ? "PARITY" : "MISMATCH",
                f.reply.at("system_interruptions").c_str(),
                f.reply.at("application_interruptions").c_str());
  }

  if (local) local->stop();
  return failures == 0 ? 0 : 1;
}
