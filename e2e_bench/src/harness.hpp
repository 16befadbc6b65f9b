#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }
inline double seconds_since(Clock::time_point a) { return ms_since(a) / 1000; }

/// CPU time of all of this process's threads so far, ms.
double process_cpu_ms();

/// Deliberate faults the self-test injects: each must surface as failed
/// ops while the run itself completes.
enum class Inject { None, DamageStore, WrongReference };

/// Set-ups per run; setup_s is their median. A set-up's cost depends on
/// its seed's scenario far more than on its record count, so the first
/// set-ups use seeds derived from the run's seed, and the last one — whose
/// inputs the timed phase uses — the run's seed itself.
constexpr int kSetups = 3;

inline std::uint64_t setup_seed(std::uint64_t seed, int index) {
  return seed + static_cast<std::uint64_t>(kSetups - 1 - index) * 0x9E3779B97F4A7C15ull;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 8;
  bool trace = false;
  /// Tiny-scale inputs (small_scenario, short packs): every op and every
  /// output check in seconds.
  bool tiny = false;
  /// Scratch directory for the v3 store (created and removed by the run).
  std::string store_dir;
  /// Chrome trace-event JSON written by a traced run ("" = none).
  std::string trace_out;
  /// Set by the self-test only.
  Inject inject = Inject::None;
};

/// Timing samples of one op type with the summary statistics the report
/// uses: the median, and the tail — the highest integer percentile that
/// still has at least ten samples above it (nearest-rank), so the tail is
/// never read off fewer than ten observations.
class Samples {
 public:
  explicit Samples(std::vector<double> v = {}) : v_(std::move(v)) {}
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double p50() const;
  struct Tail {
    double value = 0;
    int percentile = 0;  ///< 0 = fewer than 11 samples; value is the max
  };
  Tail tail() const;

 private:
  std::vector<double> v_;
};

/// Everything one run prints: human-readable lines as the run goes, then
/// the closing JSON object (end-to-end metrics untraced, per-layer metrics
/// traced). Every metric a mode reports is declared in a fixed table, so
/// a workload cannot silently omit one.
class Report {
 public:
  explicit Report(bool quiet = false) : quiet_(quiet) {}

  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Count one attempted op; returns false (and counts a failure) when
  /// `ok` is false.
  bool check(bool ok, const std::string& what);
  void attempt() { ++attempted_; }
  void fail(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void end_to_end(const std::string& name, double value);
  void layer(const std::string& name, double value);
  /// Print a workload-named latency row: p50 and tail with percentile + n.
  void latency(const std::string& name, const Samples& s);

  /// The closing JSON line.
  std::string json(bool trace) const;

 private:
  bool quiet_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

/// Wall times of one set-up, by phase.
struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double write_s = 0;
  double reference_s = 0;
  double mine_ms = 0;
};

/// Report setup_s and the set-up per-layer rows as medians over the
/// set-ups of one run.
void report_setups(Report& report, const std::vector<SetupTimes>& runs);

/// Run a workload's set-up `once(times, seed)` for each set-up seed of
/// the run, freeing each result before the next, report the medians, and
/// return the last result (the run seed's).
template <typename SetUp>
auto set_up(Report& report, std::uint64_t seed, SetUp&& once) {
  std::vector<SetupTimes> runs(kSetups);
  decltype(once(runs[0], seed)) kept{};
  for (int i = 0; i < kSetups; ++i) {
    kept = {};
    const Clock::time_point t0 = Clock::now();
    kept = once(runs[i], setup_seed(seed, i));
    runs[i].total_s = seconds_since(t0);
  }
  report_setups(report, runs);
  return kept;
}

/// Run one op under the report's failure accounting: an exception or a
/// false return counts as a failed op and never ends the run.
template <typename Fn>
bool guarded(Report& report, const char* op, Fn&& fn) {
  report.attempt();
  try {
    if (fn()) return true;
    report.fail(std::string(op) + ": output mismatch");
  } catch (const std::exception& e) {
    report.fail(std::string(op) + ": " + e.what());
  }
  return false;
}

/// One timed phase. Construction resets the resident-set high-water mark
/// (so peak_rss_mb covers the phase alone) and starts the clock and the
/// CPU accounting; finish() records peak_rss_mb and prints where the
/// phase's CPU time went, the host's steal time included.
class TimedPhase {
 public:
  TimedPhase();
  double elapsed_s() const { return seconds_since(start_); }
  /// Call once, right after the last timed op; returns elapsed_s().
  /// peak_rss_mb is the measured high-water times `rss_scale`, for a
  /// workload that states it at a fixed resident input size.
  double finish(Report& report, double rss_scale = 1) const;
  /// CPU time of all of this process's threads since the phase began, s.
  double cpu_s() const;

 private:
  struct Usage {
    double user_s = 0;
    double sys_s = 0;
    double steal_s = 0;  ///< whole VM, all CPUs
    long minor_faults = 0;
  };
  static Usage usage_now();

  bool rss_reset_;
  Usage usage_;
  double cpu_start_ms_;
  Clock::time_point start_;
};

/// Host facts printed with every run (a number only means something next
/// to the machine it came from).
void print_host(Report& report, const std::string& store_dir, std::size_t pool_threads);

std::size_t nproc();
std::string hex64(std::uint64_t v);

}  // namespace e2e
