// coral::obs — trace spans, counters, histograms and the three exporters.
//
// The Chrome trace export is validated with a real (minimal) JSON parser:
// the acceptance bar is "loads in chrome://tracing", and the first gate for
// that is being well-formed JSON with the trace_event structure.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>

#include "coral/common/parallel.hpp"
#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/obs/obs.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace {

// ---- a minimal JSON well-formedness checker --------------------------------
// Recursive descent over the full grammar (objects, arrays, strings with
// escapes, numbers, literals). Returns false on any syntax error or trailing
// garbage.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) == std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digit()) return false;
    while (digit()) {}
    if (peek() == '.') {
      ++pos_;
      if (!digit()) return false;
      while (digit()) {}
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digit()) return false;
      while (digit()) {}
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool digit() {
    if (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

bool valid_json(std::string_view text) { return JsonChecker(text).valid(); }

TEST(JsonChecker, AcceptsAndRejectsTheBasics) {
  EXPECT_TRUE(valid_json(R"({"a": [1, 2.5, -3e2], "b": "x\ny", "c": null})"));
  EXPECT_FALSE(valid_json(R"({"a": })"));
  EXPECT_FALSE(valid_json(R"([1, 2)"));
  EXPECT_FALSE(valid_json(R"({"a": 1} trailing)"));
  EXPECT_FALSE(valid_json(R"({"unterminated)"));
}

// ---- counters / histograms -------------------------------------------------

TEST(ObsCounter, AccumulatesAcrossThreads) {
  obs::Collector c;
  obs::Counter& n = c.counter("n");
  std::thread a([&n] { for (int i = 0; i < 1000; ++i) n.add(1); });
  std::thread b([&n] { for (int i = 0; i < 1000; ++i) n.add(2); });
  a.join();
  b.join();
  EXPECT_EQ(c.snapshot().counter_value("n"), 3000u);
  // The handle is stable: a second lookup is the same object.
  EXPECT_EQ(&c.counter("n"), &n);
}

TEST(ObsHistogram, PowerOfTwoBuckets) {
  EXPECT_EQ(obs::histogram_bucket(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1.5), 1u);
  EXPECT_EQ(obs::histogram_bucket(2.0), 1u);
  EXPECT_EQ(obs::histogram_bucket(2.1), 2u);
  EXPECT_EQ(obs::histogram_bucket(1024.0), 10u);
  EXPECT_EQ(obs::histogram_bucket(1e30), obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::histogram_bound(0), 1.0);
  EXPECT_EQ(obs::histogram_bound(10), 1024.0);
  EXPECT_TRUE(std::isinf(obs::histogram_bound(obs::kHistogramBuckets - 1)));
}

TEST(ObsHistogram, TracksCountSumMinMax) {
  obs::Collector c;
  c.record_value("h", 3.0);
  c.record_value("h", 100.0);
  c.record_value("h", 0.5);
  const obs::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::HistogramRecord& h = snap.histograms[0];
  EXPECT_EQ(h.name, "h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 103.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_EQ(h.buckets[obs::histogram_bucket(3.0)], 1u);
}

// ---- spans -----------------------------------------------------------------

TEST(ObsSpan, NestsParentChildOnOneThread) {
  obs::Collector c;
  {
    obs::Span outer(&c, "outer");
    {
      obs::Span inner(&c, "inner");
      inner.counts(10, 5);
    }
  }
  const obs::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  // The child closed first, so it appears in open order; find by name.
  const auto& outer = snap.spans[0].name == "outer" ? snap.spans[0] : snap.spans[1];
  const auto& inner = snap.spans[0].name == "inner" ? snap.spans[0] : snap.spans[1];
  EXPECT_EQ(outer.parent, -1);
  ASSERT_GE(inner.parent, 0);
  EXPECT_EQ(snap.spans[static_cast<std::size_t>(inner.parent)].name, "outer");
  EXPECT_EQ(inner.in, 10u);
  EXPECT_EQ(inner.out, 5u);
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_GE(inner.start_us, outer.start_us);
}

TEST(ObsSpan, NullCollectorIsInertAndMacrosSkipArguments) {
  obs::Span span(nullptr, "noop");
  span.counts(1, 2);
  span.end();

  int evaluations = 0;
  const auto count_side_effect = [&evaluations] {
    ++evaluations;
    return std::uint64_t{1};
  };
  obs::Collector* null_obs = nullptr;
  CORAL_OBS_COUNT(null_obs, "x", count_side_effect());
  CORAL_OBS_VALUE(null_obs, "x", static_cast<double>(count_side_effect()));
  EXPECT_EQ(evaluations, 0);

  obs::Collector c;
  CORAL_OBS_COUNT(&c, "x", count_side_effect());
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(c.snapshot().counter_value("x"), 1u);
}

TEST(ObsSpan, OpenSpansAreExcludedFromSnapshots) {
  obs::Collector c;
  obs::Span open(&c, "still-open");
  {
    obs::Span done(&c, "done");
  }
  const obs::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "done");
  // The finished child's parent slot (the open span) is not exported, so the
  // remap must drop the dangling reference rather than leave a bad index.
  EXPECT_EQ(snap.spans[0].parent, -1);
  open.end();
  EXPECT_EQ(c.snapshot().spans.size(), 2u);
}

const obs::HistogramRecord* find_histogram(const obs::Snapshot& snap, std::string_view name) {
  for (const obs::HistogramRecord& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::size_t span_count(const obs::Snapshot& snap, std::string_view name) {
  std::size_t n = 0;
  for (const obs::SpanRecord& s : snap.spans) n += s.name == name ? 1 : 0;
  return n;
}

const obs::SpanRecord& only_span(const obs::Snapshot& snap, std::string_view name) {
  for (const obs::SpanRecord& s : snap.spans) {
    if (s.name == name) return s;
  }
  static const obs::SpanRecord none;
  ADD_FAILURE() << "no span named " << name;
  return none;
}

TEST(ObsSpan, ClosedSpanFeedsTheHistogramOfItsName) {
  obs::Collector c;
  {
    obs::Span span(&c, "stage.a");
    span.counts(100, 42);
  }
  { obs::Span span(&c, "stage.a"); }
  obs::Span open(&c, "stage.b");  // still open: its histogram stays empty
  const obs::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].in, 100u);
  EXPECT_EQ(snap.spans[0].out, 42u);
  const obs::HistogramRecord* a = find_histogram(snap, "stage.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 2u);
  // The histogram holds the spans' own durations, in ms.
  EXPECT_DOUBLE_EQ(a->sum, snap.total_ms("stage.a"));
  const obs::HistogramRecord* b = find_histogram(snap, "stage.b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 0u);

  open.end();
  const obs::Snapshot after = c.snapshot();
  ASSERT_NE(find_histogram(after, "stage.b"), nullptr);
  EXPECT_EQ(find_histogram(after, "stage.b")->count, 1u);
}

TEST(ObsSpan, DistinctThreadsGetDistinctTids) {
  obs::Collector c;
  { obs::Span main_span(&c, "main"); }
  std::thread t([&c] { obs::Span worker_span(&c, "worker"); });
  t.join();
  const obs::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_NE(snap.spans[0].tid, snap.spans[1].tid);
}

// ---- thread-pool telemetry -------------------------------------------------

TEST(ObsPool, CountsTasksAndLatencies) {
  obs::Collector c;
  par::ThreadPool pool(2);
  pool.set_obs(&c);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  pool.set_obs(nullptr);  // detach before the snapshot: no races, no new samples
  EXPECT_EQ(ran.load(), 16);
  const obs::Snapshot snap = c.snapshot();
  EXPECT_EQ(snap.counter_value("pool.tasks"), 16u);
  bool saw_depth = false, saw_wait = false, saw_run = false;
  for (const obs::HistogramRecord& h : snap.histograms) {
    if (h.name == "pool.queue_depth") saw_depth = h.count == 16;
    if (h.name == "pool.task_wait_ms") saw_wait = h.count == 16;
    if (h.name == "pool.task_run_ms") saw_run = h.count == 16;
  }
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_run);
}

// ---- exporters -------------------------------------------------------------

obs::Collector& populated_collector() {
  static obs::Collector col;  // Collector is pinned (non-movable): fill in place
  static const bool init = [] {
    {
      obs::Span outer(&col, "stage.outer");
      obs::Span inner(&col, "stage.inner");
      inner.counts(8, 4);
    }
    col.add_counter("records.read", 1234);
    col.record_value("block.ms", 1.5);
    col.record_value("block.ms", 700.0);
    return true;
  }();
  (void)init;
  return col;
}

TEST(ObsExport, ChromeTraceIsValidTraceEventJson) {
  const std::string trace = obs::chrome_trace_json(populated_collector().snapshot());
  EXPECT_TRUE(valid_json(trace)) << trace;
  // The two structural markers chrome://tracing requires: the traceEvents
  // array and complete ("X") events with ts/dur/pid/tid.
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\": "), std::string::npos);
  EXPECT_NE(trace.find("\"dur\": "), std::string::npos);
  // Counters ride along as "C" samples.
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace.find("records.read"), std::string::npos);
}

TEST(ObsExport, ChromeTraceEscapesHostileNames) {
  obs::Collector c;
  { obs::Span span(&c, "quote\"back\\slash\nnewline"); }
  const std::string trace = obs::chrome_trace_json(c.snapshot());
  EXPECT_TRUE(valid_json(trace)) << trace;
}

TEST(ObsExport, PrometheusTextHasRequiredShape) {
  const std::string text = obs::prometheus_text(populated_collector().snapshot());
  EXPECT_NE(text.find("# TYPE coral_records_read_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("coral_records_read_total 1234\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE coral_block_ms histogram\n"), std::string::npos);
  // Cumulative buckets must end in a +Inf sample equal to _count.
  EXPECT_NE(text.find("coral_block_ms_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("coral_block_ms_count 2\n"), std::string::npos);
  // 1.5 lands in bucket (1,2]: the le="2" cumulative count includes it.
  EXPECT_NE(text.find("coral_block_ms_bucket{le=\"2\"} 1\n"), std::string::npos);
}

TEST(ObsExport, SnapshotJsonIsValid) {
  const std::string json = obs::snapshot_json(populated_collector().snapshot());
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---- end to end through the real pipeline ----------------------------------

TEST(ObsEndToEnd, CoanalysisProducesATraceAcrossLayers) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(11, 10));
  obs::Collector c;
  par::ThreadPool pool(2);
  pool.set_obs(&c);
  Context ctx;
  ctx.with_pool(&pool).with_obs(&c);

  core::CoAnalysisConfig config;
  config.execution.shards = 4;
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, config, ctx);
  pool.set_obs(nullptr);
  EXPECT_GT(r.filtered.groups.size(), 0u);

  const obs::Snapshot snap = c.snapshot();
  // A sharded stage records one span per shard, from the worker that ran it.
  EXPECT_EQ(span_count(snap, "filter.coalesce"), r.shards_used);
  EXPECT_GT(snap.total_ms("filter.coalesce"), 0.0);
  EXPECT_GT(snap.total_ms("filter.match"), 0.0);
  // Phase 2 walks every job termination once across the shards and
  // delivers only those inside some group's match window.
  const std::uint64_t walked = snap.counter_value("stream.shard.terminations_walked");
  const std::uint64_t delivered = snap.counter_value("stream.shard.terminations_delivered");
  EXPECT_EQ(walked, data.jobs.size());
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, walked);

  const std::string trace = obs::chrome_trace_json(snap);
  EXPECT_TRUE(valid_json(trace));
  EXPECT_NE(trace.find("\"stream.shard.terminations_delivered\""), std::string::npos);
}


// ---- one span per stage, under one name -----------------------------------

TEST(ObsStages, OneSpanPerStageAtOneShard) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(11, 10));
  obs::Collector c;
  Context ctx;
  ctx.with_obs(&c);
  EXPECT_EQ(ctx.obs(), &c);
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, {}, ctx);
  ASSERT_EQ(r.shards_used, 1u);

  const obs::Snapshot snap = c.snapshot();
  const char* const stages[] = {"fatal_view",     "filter.coalesce", "mine.merge",
                                "filter.match",   "merge",           "identification",
                                "char.columns",   "classification",  "job_filter",
                                "propagation",    "vulnerability"};
  EXPECT_EQ(snap.spans.size(), std::size(stages));
  for (const char* name : stages) {
    EXPECT_EQ(span_count(snap, name), 1u) << name;
    const obs::HistogramRecord* h = find_histogram(snap, name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 1u) << name;
  }
  for (const char* twin : {"stream.shard.phase1", "stream.shard.phase2", "stream.merge"}) {
    EXPECT_EQ(span_count(snap, twin), 0u) << twin;
  }

  // Each span carries its stage's flow counts.
  const auto expect_counts = [&snap](const char* name, std::uint64_t in, std::uint64_t out) {
    const obs::SpanRecord& s = only_span(snap, name);
    EXPECT_EQ(s.in, in) << name;
    EXPECT_EQ(s.out, out) << name;
  };
  const std::size_t fatal = r.filtered.fatal_events.size();
  const std::size_t spatial = r.filtered.stages[2].output;
  const std::size_t groups = r.filtered.groups.size();
  const std::size_t interruptions = r.matches.interruptions.size();
  expect_counts("fatal_view", data.ras.size(), fatal);
  expect_counts("filter.coalesce", fatal, spatial);
  EXPECT_EQ(only_span(snap, "mine.merge").out, r.filtered.causal_pairs.size());
  expect_counts("filter.match", spatial, groups);
  expect_counts("merge", groups, interruptions);
  expect_counts("identification", groups, r.identification.verdicts.size());
  EXPECT_EQ(only_span(snap, "char.columns").out, interruptions);
  expect_counts("classification", r.identification.verdicts.size(),
                r.classification.by_code.size());
  expect_counts("job_filter", groups, r.job_filter.kept.size());
  expect_counts("propagation", interruptions, r.propagation.propagating_codes.size());
  expect_counts("vulnerability", interruptions, data.jobs.size());
}

TEST(ObsStages, OneSpanPerShardOnAPool) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(11, 10));
  obs::Collector c;
  par::ThreadPool pool(4);
  Context ctx;
  ctx.with_pool(&pool).with_obs(&c);
  EXPECT_EQ(ctx.obs(), &c);
  core::CoAnalysisConfig config;
  config.execution.shards = 4;
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, config, ctx);
  ASSERT_GT(r.shards_used, 1u);

  const obs::Snapshot snap = c.snapshot();
  // The sharded stages record one span per shard; their counts add up to
  // the stage's whole.
  std::uint64_t coalesce_in = 0, coalesce_out = 0, match_in = 0, match_out = 0;
  for (const obs::SpanRecord& s : snap.spans) {
    if (s.name == "filter.coalesce") {
      coalesce_in += s.in;
      coalesce_out += s.out;
    } else if (s.name == "filter.match") {
      match_in += s.in;
      match_out += s.out;
    }
  }
  EXPECT_EQ(span_count(snap, "filter.coalesce"), r.shards_used);
  EXPECT_EQ(span_count(snap, "filter.match"), r.shards_used);
  EXPECT_EQ(coalesce_in, r.filtered.fatal_events.size());
  EXPECT_EQ(coalesce_out, r.filtered.stages[2].output);
  EXPECT_EQ(match_in, r.filtered.stages[2].output);
  EXPECT_EQ(match_out, r.filtered.groups.size());
  for (const char* name : {"fatal_view", "mine.merge", "merge", "identification"}) {
    EXPECT_EQ(span_count(snap, name), 1u) << name;
  }
}

// ---- bounded span ring + labeled multi-tenant export -----------------------

TEST(ObsRing, EvictsClosedSpansBeyondCapacityFifo) {
  obs::Collector c;
  c.set_span_capacity(4);
  for (int i = 0; i < 10; ++i) {
    obs::Span s(&c, i % 2 == 0 ? "even" : "odd");
  }
  const obs::Snapshot snap = c.snapshot();
  EXPECT_EQ(snap.spans.size(), 4u);
  EXPECT_EQ(snap.spans_dropped, 6u);
  EXPECT_EQ(c.spans_dropped(), 6u);
  // The survivors are the newest four, in order: odd, even, odd, even.
  EXPECT_EQ(snap.spans[0].name, "even");
  EXPECT_EQ(snap.spans[3].name, "odd");
}

TEST(ObsRing, OpenFrontSpanPinsTheRing) {
  obs::Collector c;
  c.set_span_capacity(2);
  {
    obs::Span outer(&c, "outer");  // open: its live handle pins the front
    for (int i = 0; i < 8; ++i) {
      obs::Span child(&c, "child");
    }
    // Eviction stops at the oldest open span, so nothing was dropped even
    // though the ring is 4x over capacity.
    EXPECT_EQ(c.spans_dropped(), 0u);
    EXPECT_EQ(c.snapshot().spans.size(), 8u);  // the closed children
  }
  // Once the pin closes, the next record resumes eviction down to capacity.
  {
    obs::Span after(&c, "after");
  }
  EXPECT_GT(c.spans_dropped(), 0u);
  const obs::Snapshot snap = c.snapshot();
  ASSERT_LE(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans.back().name, "after");
}

TEST(ObsRing, EvictedParentRemapsToRoot) {
  obs::Collector c;
  c.set_span_capacity(3);
  {
    obs::Span parent(&c, "parent");
  }
  // Push the closed parent out of the ring.
  for (int i = 0; i < 6; ++i) {
    obs::Span filler(&c, "filler");
  }
  for (const auto& s : c.snapshot().spans) {
    EXPECT_EQ(s.parent, -1) << s.name;  // nothing may point at evicted slots
  }
}

TEST(ObsRing, UnboundedByDefault) {
  obs::Collector c;
  for (int i = 0; i < 1000; ++i) {
    obs::Span s(&c, "s");
  }
  EXPECT_EQ(c.snapshot().spans.size(), 1000u);
  EXPECT_EQ(c.spans_dropped(), 0u);
}

TEST(ObsExport, LabeledPrometheusMatchesUnlabeledWhenLabelsEmpty) {
  obs::Collector c;
  CORAL_OBS_COUNT(&c, "events.seen", 42);
  c.record_value("batch.ms", 3.5);
  const obs::Snapshot snap = c.snapshot();
  EXPECT_EQ(obs::prometheus_text(snap), obs::prometheus_text(snap, ""));
}

TEST(ObsExport, MultiTenantExpositionEmitsEachFamilyOnce) {
  obs::Collector a, b;
  CORAL_OBS_COUNT(&a, "session.bytes.accepted", 100);
  CORAL_OBS_COUNT(&b, "session.bytes.accepted", 250);
  const std::string text = obs::prometheus_text(
      {{"tenant=\"alpha\"", a.snapshot()}, {"tenant=\"beta\"", b.snapshot()}});
  const std::string type_line =
      "# TYPE coral_session_bytes_accepted_total counter";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line)) << text;
  EXPECT_NE(
      text.find("coral_session_bytes_accepted_total{tenant=\"alpha\"} 100"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("coral_session_bytes_accepted_total{tenant=\"beta\"} 250"),
      std::string::npos);
}

TEST(ObsExport, SpansDroppedSurfacesInSnapshot) {
  obs::Collector c;
  c.set_span_capacity(1);
  for (int i = 0; i < 3; ++i) {
    obs::Span s(&c, "x");
  }
  EXPECT_EQ(c.snapshot().spans_dropped, 2u);
}

}  // namespace
}  // namespace coral
