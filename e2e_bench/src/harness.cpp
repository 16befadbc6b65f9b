#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace e2e {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The untraced run's gated metrics: one set for every workload, so each
// workload's headline op fills the same slots (README.md maps them). The
// op metrics are process CPU time, which host steal barely moves; the
// wall-time latencies and rates are report lines.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_cpu_ms", "ms"},
    {"records_per_cpu_s", "records/cpu_s"},
};

// The traced run's per-layer metrics. A workload that does not exercise a
// layer reports 0 for it (the "no change on this workload" prediction).
constexpr MetricDef kPerLayer[] = {
    {"ras.read_ms", "ms"},
    {"ras.read_window_ms", "ms"},
    {"ras.write_ms", "ms"},
    {"ras.records", "count"},
    {"ras.window_records", "count"},
    {"ras.bytes_written", "B"},
    {"joblog.read_ms", "ms"},
    {"joblog.read_window_ms", "ms"},
    {"joblog.write_ms", "ms"},
    {"joblog.bytes_written", "B"},
    {"stream.frontend_ms", "ms"},
    {"stream.groups", "count"},
    {"stream.interruptions", "count"},
    {"stream.session_pump_ms", "ms"},
    {"stream.session_finalize_ms", "ms"},
    {"stream.decoded_ratio", "ratio"},
    {"stream.census_ms", "ms"},
    {"core.identification_ms", "ms"},
    {"core.char_columns_ms", "ms"},
    {"core.classification_ms", "ms"},
    {"core.job_filter_ms", "ms"},
    {"core.propagation_ms", "ms"},
    {"core.vulnerability_ms", "ms"},
    {"core.interarrival_ms", "ms"},
    {"core.window_analysis_ms", "ms"},
    {"predict.replay_ms", "ms"},
    {"predict.predictions", "count"},
    {"predict.mine_ms", "ms"},
    {"fleet.send_ms", "ms"},
    {"fleet.flush_p50_ms", "ms"},
    {"fleet.flush_tail_ms", "ms"},
    {"fleet.finalize_wait_ms", "ms"},
    {"fleet.bytes_fed", "B"},
    {"synth.generate_s", "s"},
    {"setup.write_s", "s"},
    {"setup.reference_s", "s"},
    {"unattributed.full_ms", "ms"},
    {"unattributed.window_ms", "ms"},
    {"unattributed.write_ms", "ms"},
    {"unattributed.analysis_ms", "ms"},
    {"unattributed.round_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

template <std::size_t N>
bool declared(const MetricDef (&table)[N], const std::string& name) {
  return std::any_of(std::begin(table), std::end(table),
                     [&](const MetricDef& d) { return name == d.name; });
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

double Samples::p50() const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

Samples::Tail Samples::tail() const {
  Tail t;
  if (v_.empty()) return t;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  t.value = s.back();
  // Nearest rank of percentile p is ceil(p n / 100); the samples above it
  // number n - rank. Take the highest p that leaves at least ten.
  for (int p = 99; p >= 1; --p) {
    const std::size_t rank =
        (static_cast<std::size_t>(p) * n + 99) / 100;  // ceil(p n / 100)
    if (rank >= 1 && n - rank >= 10) {
      t.value = s[rank - 1];
      t.percentile = p;
      break;
    }
  }
  return t;
}

void Report::line(const char* fmt, ...) {
  if (quiet_) return;
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
}

bool Report::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail(what);
  return ok;
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "FAILED op: %s\n", what.c_str());
}

void Report::end_to_end(const std::string& name, double value) {
  if (!declared(kEndToEnd, name)) throw std::logic_error("undeclared metric " + name);
  e2e_[name] = value;
}

void Report::layer(const std::string& name, double value) {
  if (!declared(kPerLayer, name)) throw std::logic_error("undeclared metric " + name);
  layer_[name] = value;
}

void Report::latency(const std::string& name, const Samples& s) {
  const Samples::Tail t = s.tail();
  line("metric %s_p50_ms %.3f ms n=%zu", name.c_str(), s.p50(), s.size());
  if (t.percentile > 0) {
    line("metric %s_tail_ms %.3f ms p%d n=%zu", name.c_str(), t.value, t.percentile,
         s.size());
  } else {
    line("metric %s_tail_ms %.3f ms max (n=%zu < 11, no percentile has 10 above)",
         name.c_str(), t.value, s.size());
  }
}

std::string Report::json(bool trace) const {
  std::string m;
  const auto emit = [&](const MetricDef& d, double v) {
    if (!m.empty()) m += ", ";
    m += "\"" + std::string(d.name) + "\": {\"value\": " + number(v) + ", \"unit\": \"" +
         d.unit + "\"}";
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = layer_.find(d.name);
      emit(d, it == layer_.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = e2e_.find(d.name);
      if (it == e2e_.end()) throw std::logic_error(std::string("metric not measured: ") + d.name);
      emit(d, it->second);
    }
  }
  return "{\"correct\": " + std::string(failed_ == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" + m + "}}";
}

void report_setups(Report& report, const std::vector<SetupTimes>& runs) {
  const auto med = [&](double SetupTimes::*field) {
    Samples s;
    for (const SetupTimes& r : runs) s.add(r.*field);
    return s.p50();
  };
  std::string each;
  for (const SetupTimes& r : runs) each += " " + std::to_string(r.total_s);
  report.line("metric setup_s %.3f s (median of %zu set-ups:%s)", med(&SetupTimes::total_s),
              runs.size(), each.c_str());
  report.line("setup: generate %.3f s, write %.3f s, references %.3f s, rule mining %.3f ms",
              med(&SetupTimes::generate_s), med(&SetupTimes::write_s),
              med(&SetupTimes::reference_s), med(&SetupTimes::mine_ms));
  report.end_to_end("setup_s", med(&SetupTimes::total_s));
  report.layer("synth.generate_s", med(&SetupTimes::generate_s));
  report.layer("setup.write_s", med(&SetupTimes::write_s));
  report.layer("setup.reference_s", med(&SetupTimes::reference_s));
  report.layer("predict.mine_ms", med(&SetupTimes::mine_ms));
}

namespace {

/// Reset the resident-set high-water mark to the current RSS (Linux
/// clear_refs "5"); false when the kernel refuses.
bool reset_peak_rss() {
  // Hand freed set-up memory back first, so the mark starts from what the
  // timed phase actually keeps live (repeated set-ups otherwise leave the
  // heap holding their peak).
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM of this process, MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    std::getline(f, key);
  }
  return 0;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

TimedPhase::TimedPhase()
    : rss_reset_(reset_peak_rss()),
      usage_(usage_now()),
      cpu_start_ms_(process_cpu_ms()),
      start_(Clock::now()) {}

TimedPhase::Usage TimedPhase::usage_now() {
  Usage u;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  u.user_s = seconds_of(ru.ru_utime);
  u.sys_s = seconds_of(ru.ru_stime);
  u.minor_faults = ru.ru_minflt;
  // /proc/stat "cpu user nice system idle iowait irq softirq steal ...", in
  // clock ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (double& t : ticks) stat >> t;
  }
  u.steal_s = ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
  return u;
}

double TimedPhase::cpu_s() const { return (process_cpu_ms() - cpu_start_ms_) / 1000; }

double TimedPhase::finish(Report& report, double rss_scale) const {
  const double elapsed = elapsed_s();
  const double rss = peak_rss_mb();
  const Usage now = usage_now();
  report.line("metric peak_rss_mb %.1f MiB (measured %.1f MiB x %.4f)%s", rss * rss_scale, rss,
              rss_scale, rss_reset_ ? "" : " (HWM reset refused)");
  report.line("timed phase cpu: user %.2f s, sys %.2f s, %ld minor faults; host steal %.2f%% "
              "of %zu CPUs",
              now.user_s - usage_.user_s, now.sys_s - usage_.sys_s,
              now.minor_faults - usage_.minor_faults,
              100 * (now.steal_s - usage_.steal_s) / (elapsed * static_cast<double>(nproc())),
              nproc());
  report.end_to_end("peak_rss_mb", rss * rss_scale);
  return elapsed;
}

double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_host(Report& report, const std::string& store_dir, std::size_t pool_threads) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string l; std::getline(info, l);) {
    if (l.rfind("model name", 0) == 0) {
      cpu = l.substr(l.find(':') + 2);
      break;
    }
  }
  const char* env = std::getenv("CORAL_THREADS");
  struct statfs fs {};
  const char* fs_kind = "unknown";
  if (!store_dir.empty() && ::statfs(store_dir.c_str(), &fs) == 0) {
    fs_kind = fs.f_type == 0x01021994 ? "tmpfs" : "not tmpfs";  // TMPFS_MAGIC
  }
  report.line("host: nproc=%zu pool_threads=%zu CORAL_THREADS=%s cpu=\"%s\" store=%s",
              nproc(), pool_threads, env ? env : "(unset)", cpu.c_str(), fs_kind);
}

}  // namespace e2e
