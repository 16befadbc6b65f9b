// coral_e2e — the end-to-end benchmark program.
//
//   coral_e2e --workload archive|sweep|fleet [--seed N] [--seconds S]
//             [--trace 0|1] [--tiny] [--store-dir DIR] [--trace-out FILE]
//   coral_e2e --selftest
//
// Runs one workload from a seed, checks every op's output, prints the
// input and host record and the workload's metrics by name and unit, and
// ends with one JSON line: end-to-end metrics untraced, per-layer metrics
// with --trace 1. Exits 0 only when every op passed its check. See
// README.md in this directory for the workloads and metric tables.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

void run(const Options& opt, Report& report) {
  if (opt.workload == "archive") return run_archive(opt, report);
  if (opt.workload == "sweep") return run_sweep(opt, report);
  if (opt.workload == "fleet") return run_fleet(opt, report);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

/// Runs one workload with its own scratch store directory, removed after.
void run_in_store(Options opt, Report& report) {
  if (opt.store_dir.empty()) {
    opt.store_dir = "e2e-store-" + std::to_string(::getpid());
  }
  std::filesystem::create_directories(opt.store_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{opt.store_dir};
  run(opt, report);
}

/// Every workload at tiny scale, traced and untraced, then with a damaged
/// store byte and with a wrong reference: clean runs must pass every op,
/// injected faults must count as failed ops while the run completes.
int selftest() {
  struct Case {
    const char* workload;
    bool trace;
    Inject inject;
  };
  const Case cases[] = {
      {"archive", false, Inject::None},        {"archive", true, Inject::None},
      {"sweep", false, Inject::None},          {"sweep", true, Inject::None},
      {"fleet", false, Inject::None},          {"fleet", true, Inject::None},
      {"archive", false, Inject::DamageStore}, {"archive", false, Inject::WrongReference},
      {"sweep", false, Inject::WrongReference}, {"fleet", false, Inject::DamageStore},
      {"fleet", false, Inject::WrongReference},
  };
  int bad = 0;
  for (const Case& c : cases) {
    Options opt;
    opt.workload = c.workload;
    opt.seed = 7;
    opt.seconds = 0.5;
    opt.trace = c.trace;
    opt.tiny = true;
    opt.inject = c.inject;
    Report report(true);
    bool ok = false;
    std::string why;
    try {
      run_in_store(opt, report);
      const std::string json = report.json(c.trace);
      ok = c.inject == Inject::None
               ? report.failed() == 0 && report.attempted() > 0
               : report.failed() >= 1 && report.attempted() > report.failed();
      why = json.substr(0, json.find(", \"metrics\""));
    } catch (const std::exception& e) {
      why = std::string("run aborted: ") + e.what();
    }
    const char* inject = c.inject == Inject::None          ? "none"
                         : c.inject == Inject::DamageStore ? "damage"
                                                           : "wrong-ref";
    std::printf("%s %-8s trace=%d inject=%-9s %s\n", ok ? "PASS" : "FAIL", c.workload,
                c.trace ? 1 : 0, inject, why.c_str());
    bad += ok ? 0 : 1;
  }
  return bad == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: coral_e2e --workload archive|sweep|fleet [--seed N] "
               "[--seconds S] [--trace 0|1] [--tiny] [--store-dir DIR] [--trace-out FILE]\n"
               "       coral_e2e --selftest\n",
               error.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(std::string(arg) + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = value() != "0";
      else if (arg == "--tiny") opt.tiny = true;
      else if (arg == "--store-dir") opt.store_dir = value();
      else if (arg == "--trace-out") opt.trace_out = value();
      else if (arg == "--selftest") self = true;
      else usage("unknown argument " + std::string(arg));
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(arg));
    }
  }
  if (self) return selftest();
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds <= 0) usage("--seconds must be positive");

  Report report;
  try {
    report.line("run: workload=%s seed=%llu seconds=%g trace=%d tiny=%d setups=%d",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.tiny ? 1 : 0, kSetups);
    run_in_store(opt, report);
    if (opt.trace && !opt.trace_out.empty()) report.line("trace: %s", opt.trace_out.c_str());
    report.line("ops=%llu ops_failed=%llu", static_cast<unsigned long long>(report.attempted()),
                static_cast<unsigned long long>(report.failed()));
    const std::string json = report.json(opt.trace);
    std::fflush(stdout);
    std::printf("%s\n", json.c_str());
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return report.failed() == 0 ? 0 : 1;
}
