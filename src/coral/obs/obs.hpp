#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace coral::obs {

/// Steady clock shared by every obs time measurement; span timestamps are
/// microseconds relative to the owning Collector's construction.
using Clock = std::chrono::steady_clock;

/// One finished trace span. Spans form a forest per thread: `parent` is the
/// index (into Collector::snapshot().spans) of the span that was open on the
/// same collector when this one started, or -1 for a root.
struct SpanRecord {
  std::string name;         ///< stable stage identifier ("filter.coalesce", ...)
  std::int64_t start_us = 0;  ///< relative to the collector epoch
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;    ///< dense per-collector thread number (0 = first seen)
  std::int32_t parent = -1;
  std::uint64_t in = 0;     ///< optional flow counts: records/groups in -> out
  std::uint64_t out = 0;
};

/// A monotonically increasing named total.
struct CounterRecord {
  std::string name;
  std::uint64_t value = 0;
};

inline constexpr std::size_t kHistogramBuckets = 40;

/// Power-of-two histogram: bucket b counts values in (2^(b-1), 2^b] (bucket
/// 0 is (-inf, 1]; the last bucket is unbounded). One shape serves both
/// latencies (ms) and sizes (records, bytes): log-scale is the right
/// resolution for either.
struct HistogramRecord {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// Bucket index for a value (see HistogramRecord).
std::size_t histogram_bucket(double value);
/// Inclusive upper bound of bucket `b` (+inf for the last one).
double histogram_bound(std::size_t b);

/// Typed hot-path counter handle: resolve once with Collector::counter(),
/// then add() without any lock or lookup. Pointers stay valid for the
/// collector's lifetime.
class Counter {
 public:
  void add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Collector;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Typed latency/size histogram handle; record() takes one short lock (adds
/// happen per stage/task/block, never per record).
class Histogram {
 public:
  void record(double value);
  HistogramRecord snapshot() const;

 private:
  friend class Collector;
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  std::string name_;
  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets_{};
};

/// Everything a Collector has gathered, in one copy-out: the input to the
/// exporters (chrome_trace_json, prometheus_text, snapshot_json) and to the
/// BENCH_*.json emission.
struct Snapshot {
  std::vector<SpanRecord> spans;
  std::vector<CounterRecord> counters;
  std::vector<HistogramRecord> histograms;
  /// Closed spans evicted from a bounded collector before this snapshot
  /// (see Collector::set_span_capacity); 0 for unbounded collectors.
  std::uint64_t spans_dropped = 0;

  /// Total wall-ms across every span with this name (a sharded stage records
  /// one span per shard).
  double total_ms(std::string_view name) const;
  /// Sum of a counter by name (0 when absent).
  std::uint64_t counter_value(std::string_view name) const;
};

/// The observability hub: hierarchical trace spans, typed counters and
/// histograms, gathered thread-safely and exported as Chrome trace_event
/// JSON or Prometheus text. Every closed span also lands in the duration
/// histogram (ms) of its own name, so each stage has a latency family on
/// /metrics without a second instrument.
///
/// The null collector (a nullptr everywhere one is accepted) is the
/// zero-overhead default: the Span constructor and the CORAL_OBS_* macros
/// never read a clock, take a lock or evaluate their value arguments when
/// the collector pointer is null.
class Collector {
 public:
  Collector() : epoch_(Clock::now()) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Named counter handle; stable address, created on first use.
  Counter& counter(std::string_view name);
  /// Named histogram handle; stable address, created on first use.
  Histogram& histogram(std::string_view name);

  /// Convenience single-shot forms (one lookup per call — fine off the hot
  /// path; hot paths hold a Counter&/Histogram& or batch locally).
  void add_counter(std::string_view name, std::uint64_t delta) { counter(name).add(delta); }
  void record_value(std::string_view name, double value) { histogram(name).record(value); }

  /// Bound the span buffer: once more than `cap` spans are held, the oldest
  /// *closed* spans are evicted (open spans are never evicted — their
  /// handles are live) and counted in Snapshot::spans_dropped. 0 restores
  /// the unbounded default. A resident daemon sets this so week-long
  /// sessions cannot grow span memory without limit; one-shot analyses keep
  /// every span as before.
  void set_span_capacity(std::size_t cap);
  /// Closed spans evicted so far.
  std::uint64_t spans_dropped() const;

  Snapshot snapshot() const;
  Clock::time_point epoch() const { return epoch_; }

 private:
  friend class Span;

  /// Span bookkeeping: a slot is allocated when the span opens (so children
  /// that close first can reference their parent) and filled when it closes.
  std::int32_t open_span(const char* name, std::int64_t start_us, std::uint32_t tid,
                         std::int32_t parent);
  /// Returns the recorded duration in microseconds.
  std::int64_t close_span(std::int32_t index, std::int64_t end_us, std::uint64_t in,
                          std::uint64_t out);

  std::uint32_t thread_number();
  /// Evict closed front spans down to capacity (span_mu_ held).
  void evict_locked();

  const Clock::time_point epoch_;

  // Span indices handed to open_span callers are *absolute* (monotonic since
  // construction); the deque holds [first_index_, first_index_ + size).
  // Eviction advances first_index_ without invalidating open-span indices.
  mutable std::mutex span_mu_;
  std::deque<SpanRecord> spans_;
  std::int64_t first_index_ = 0;
  std::size_t span_capacity_ = 0;  ///< 0 = unbounded
  std::uint64_t spans_dropped_ = 0;

  mutable std::mutex reg_mu_;
  // Deques-of-nodes via unique_ptr keep handle addresses stable across
  // rehashes; names are owned by the handles themselves.
  std::unordered_map<std::string_view, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string_view, std::unique_ptr<Histogram>> histograms_;

  mutable std::mutex tid_mu_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

/// RAII trace span. With a null collector the constructor is a few pointer
/// stores; with a live one it resolves the histogram of its name, captures
/// the thread id, links to the innermost open span of the same collector on
/// this thread, and records on destruction (or an explicit end()): the span
/// itself plus its duration in that histogram.
class Span {
 public:
  Span(Collector* collector, const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Attach flow counts (records or groups in -> out), reported with the
  /// span.
  void counts(std::uint64_t in, std::uint64_t out) {
    in_ = in;
    out_ = out;
  }

  /// Close the span now instead of at scope exit (idempotent).
  void end();

 private:
  Collector* collector_;
  Histogram* histogram_ = nullptr;
  std::int32_t index_ = -1;
  std::uint64_t in_ = 0;
  std::uint64_t out_ = 0;
};

// --- Exporters -------------------------------------------------------------

/// Chrome trace_event JSON (the "JSON Object Format": {"traceEvents": [...]})
/// loadable in chrome://tracing or https://ui.perfetto.dev. Spans become
/// complete ("ph":"X") events with microsecond timestamps; counters become
/// one final "C" sample so totals show up in the viewer.
std::string chrome_trace_json(const Snapshot& snap);

/// Prometheus text exposition (version 0.0.4): counters as `counter`,
/// histograms as cumulative-bucket `histogram` families. Names are prefixed
/// with `coral_` and sanitized to the Prometheus charset.
std::string prometheus_text(const Snapshot& snap);

/// Same exposition with a pre-rendered label set (e.g. `tenant="bgp0"`)
/// attached to every sample. `labels` is spliced verbatim inside the braces,
/// so it must already be escaped per the exposition format.
std::string prometheus_text(const Snapshot& snap, std::string_view labels);

/// One tenant's snapshot plus its label set, for the merged exposition.
struct LabeledSnapshot {
  std::string labels;  ///< e.g. `tenant="bgp0"`, pre-escaped
  Snapshot snap;
};

/// Merged multi-tenant exposition: one `# TYPE` header per metric family
/// (Prometheus rejects duplicates), then every tenant's samples under its
/// labels — what a daemon's /metrics endpoint serves.
std::string prometheus_text(const std::vector<LabeledSnapshot>& snaps);

/// Machine-readable snapshot JSON for the BENCH_*.json artifacts:
/// {"spans": [...], "counters": {...}, "histograms": [...]}.
std::string snapshot_json(const Snapshot& snap);

}  // namespace coral::obs

/// Hot-path guards: no argument evaluation, clocks or locks when the
/// collector is null.
#define CORAL_OBS_COUNT(collector, name, delta)                                      \
  do {                                                                               \
    if (auto* coral_obs_c_ = (collector)) coral_obs_c_->add_counter((name), (delta)); \
  } while (0)

#define CORAL_OBS_VALUE(collector, name, value)                                        \
  do {                                                                                 \
    if (auto* coral_obs_c_ = (collector)) coral_obs_c_->record_value((name), (value)); \
  } while (0)
