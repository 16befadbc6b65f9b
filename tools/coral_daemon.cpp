// coral_daemon: the resident fleet co-analysis service.
//
// Binds a wire port (CBLK-framed tenant protocol, see coral/fleet/wire.hpp)
// and a Prometheus /metrics port, then serves tenants until SIGINT/SIGTERM.
// Port 0 picks an ephemeral port; the bound ports are printed on one line so
// a harness (the CI smoke stage, the feeder example's README recipe) can
// scrape them from stdout:
//
//   coral_daemon listening wire=127.0.0.1:41317 metrics=127.0.0.1:38121
//
// Usage:
//   coral_daemon [--bind HOST] [--port N] [--metrics-port N]
//                [--span-capacity N]
//
// Each connection thread decodes its tenant's data messages as they arrive.
// Each tenant's finalize runs its co-analysis serially on the connection
// thread, one tenant at a time.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "coral/fleet/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--bind HOST] [--port N] [--metrics-port N]\n"
               "          [--span-capacity N]\n"
               "Port 0 (the default) binds an ephemeral port, printed at startup.\n"
               "Data messages are decoded as they arrive; finalizes run serially,\n"
               "one tenant at a time.\n",
               argv0);
  std::exit(2);
}

long long num_arg(int argc, char** argv, int& i, const char* argv0) {
  if (i + 1 >= argc) usage(argv0);
  char* end = nullptr;
  const long long v = std::strtoll(argv[++i], &end, 10);
  if (end == nullptr || *end != '\0') usage(argv0);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  coral::fleet::DaemonConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--bind") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      cfg.bind = argv[++i];
    } else if (std::strcmp(arg, "--port") == 0) {
      cfg.wire_port = static_cast<int>(num_arg(argc, argv, i, argv[0]));
    } else if (std::strcmp(arg, "--metrics-port") == 0) {
      cfg.metrics_port = static_cast<int>(num_arg(argc, argv, i, argv[0]));
    } else if (std::strcmp(arg, "--span-capacity") == 0) {
      cfg.span_capacity = static_cast<std::size_t>(num_arg(argc, argv, i, argv[0]));
    } else {
      usage(argv[0]);
    }
  }

  try {
    coral::fleet::Daemon daemon(cfg);
    daemon.start();
    std::printf("coral_daemon listening wire=%s:%d metrics=%s:%d\n",
                cfg.bind.c_str(), daemon.wire_port(), cfg.bind.c_str(),
                daemon.metrics_port());
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    daemon.stop();
    for (const auto& t : daemon.tenants()) {
      std::printf("tenant %s machine=%s ras=%llu jobs=%llu finalized=%d\n",
                  t.name.c_str(), t.machine.c_str(),
                  static_cast<unsigned long long>(t.stats.ras_records),
                  static_cast<unsigned long long>(t.stats.job_records),
                  t.stats.finalized ? 1 : 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coral_daemon: %s\n", e.what());
    return 1;
  }
  return 0;
}
