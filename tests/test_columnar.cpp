// Equality pins for the columnar hot path: the SoA fatal view against the
// AoS records, the per-midplane interval index against brute-force job
// scans, the streaming matcher against the historical std::set collection,
// and the sliced CRC32 / parallel binary reader against their sequential
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/parallel.hpp"
#include "coral/common/rng.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/ras/binary_stream.hpp"
#include "coral/ras/log.hpp"
#include "coral/stream/coanalysis.hpp"
#include "coral/synth/intrepid.hpp"
#include "bgp_fixture.hpp"
#include "corrupt.hpp"
#include "frontend_oracle.hpp"
#include "read_equal.hpp"

namespace coral {
namespace {

const synth::SynthResult& scenario() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(42));
  return result;
}

// ---------------------------------------------------------------------------
// FatalColumns: the SoA view must agree with the AoS records index for index.

void expect_columns_match_events(const ras::RasLog& log) {
  const ras::FatalColumns& cols = log.fatal_columns();
  const std::vector<ras::RasEvent> fatal = log.fatal_events();
  ASSERT_EQ(cols.size(), fatal.size());
  ASSERT_EQ(cols.errcode.size(), cols.size());
  ASSERT_EQ(cols.loc_key.size(), cols.size());
  ASSERT_EQ(cols.log_index.size(), cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    EXPECT_EQ(cols.event_time[i], fatal[i].event_time) << "row " << i;
    EXPECT_EQ(cols.errcode[i], fatal[i].errcode) << "row " << i;
    EXPECT_EQ(cols.loc_key[i], fatal[i].location.packed()) << "row " << i;
    // log_index maps back into the full log, and the packed key round-trips.
    const ras::RasEvent& owner = log[cols.log_index[i]];
    EXPECT_EQ(owner.severity, ras::Severity::Fatal);
    EXPECT_EQ(owner.event_time, fatal[i].event_time);
    EXPECT_EQ(log.machine().location_from_packed(cols.loc_key[i]), owner.location);
  }
}

TEST(FatalColumns, MatchesAosViewOnScenarioLog) {
  expect_columns_match_events(scenario().ras);
}

TEST(FatalColumns, OutOfOrderAppendsAreSortedConsistently) {
  const ras::Catalog& cat = ras::default_catalog();
  const TimePoint base = TimePoint::from_calendar(2009, 3, 1);
  ras::RasLog log;
  // Appends arrive shuffled in time and mixed in severity; finalize() owns
  // the sort, and the columns must mirror whatever order it settles on.
  for (std::size_t i = 0; i < 500; ++i) {
    ras::RasEvent ev;
    ev.event_time = base + static_cast<Usec>((i * 7919) % 500) * kUsecPerMin;
    const machine::LocCodec& codec = machine::bgp_model().codec();
    const auto mid = static_cast<bgp::MidplaneId>(i % 80);
    ev.location = i % 3 == 0
                      ? testing::bgp_rack(static_cast<int>(i % 40))
                      : bgp::Location::make(bgp::LocationKind::NodeCard, codec.rack_of_midplane(mid),
                                            codec.midplane_in_rack(mid), static_cast<int>(i % 16), -1);
    ev.errcode = i % 2 == 0 ? cat.fatal_ids()[i % cat.fatal_ids().size()]
                            : cat.nonfatal_ids()[i % cat.nonfatal_ids().size()];
    ev.severity = i % 2 == 0 ? ras::Severity::Fatal : ras::Severity::Warning;
    ev.serial = static_cast<std::uint32_t>(i);
    log.append(ev);
  }
  log.finalize();
  expect_columns_match_events(log);
}

TEST(FatalColumns, ConsistentAfterLenientIngestDrops) {
  std::stringstream buf;
  ras::write_binary(buf, scenario().ras);
  std::string bytes = buf.str();
  // Corrupt a payload byte in the third record block: its frame drops in
  // lenient mode, and the surviving log's columns must still mirror it.
  std::size_t p = bytes.find("CBLK");
  for (int skip = 0; skip < 4; ++skip) p = bytes.find("CBLK", p + 1);
  ASSERT_NE(p, std::string::npos);
  bytes[p + 20] = static_cast<char>(bytes[p + 20] ^ 0xFF);

  std::istringstream in(bytes);
  IngestReport rep;
  const ras::RasLog parsed =
      ras::read_binary(in, ras::default_catalog(), ParseMode::Lenient, &rep);
  ASSERT_LT(parsed.size(), scenario().ras.size());
  EXPECT_GT(rep.malformed(IngestReason::BinaryFrame), 0u);
  expect_columns_match_events(parsed);
}

// ---------------------------------------------------------------------------
// JobLog::overlapping against the all-jobs reference scan, including the
// boundary shapes the binary-searched slice must not get wrong.

std::vector<std::size_t> overlapping_reference(const joblog::JobLog& jobs,
                                               TimePoint begin, TimePoint end) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].start_time < end && jobs[i].end_time > begin) out.push_back(i);
  }
  return out;
}

TEST(Overlapping, EmptyLog) {
  joblog::JobLog empty;
  empty.finalize();
  EXPECT_TRUE(empty.overlapping(TimePoint(0), TimePoint(1'000'000)).empty());
}

TEST(Overlapping, DegenerateBeginEqualsEnd) {
  const joblog::JobLog& jobs = scenario().jobs;
  ASSERT_FALSE(jobs.empty());
  // A zero-width window [t, t): jobs straddling t still qualify under the
  // start < end, end > begin predicate, exactly as the linear scan had it.
  const TimePoint t = jobs[jobs.size() / 2].start_time + kUsecPerMin;
  EXPECT_EQ(jobs.overlapping(t, t), overlapping_reference(jobs, t, t));
}

TEST(Overlapping, AllJobsOverlap) {
  const joblog::JobLog& jobs = scenario().jobs;
  TimePoint lo = jobs[0].start_time;
  TimePoint hi = jobs[0].end_time;
  for (const joblog::JobRecord& j : jobs) {
    if (j.start_time < lo) lo = j.start_time;
    if (j.end_time > hi) hi = j.end_time;
  }
  const auto all = jobs.overlapping(lo - kUsecPerMin, hi + kUsecPerMin);
  ASSERT_EQ(all.size(), jobs.size());
  EXPECT_EQ(all, overlapping_reference(jobs, lo - kUsecPerMin, hi + kUsecPerMin));
}

TEST(Overlapping, SampledWindowsMatchReference) {
  const joblog::JobLog& jobs = scenario().jobs;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const joblog::JobRecord& a = jobs[rng.uniform_index(jobs.size())];
    const joblog::JobRecord& b = jobs[rng.uniform_index(jobs.size())];
    const TimePoint begin = std::min(a.start_time, b.end_time);
    const TimePoint end = std::max(a.start_time, b.end_time);
    EXPECT_EQ(jobs.overlapping(begin, end), overlapping_reference(jobs, begin, end));
  }
}

// ---------------------------------------------------------------------------
// IntervalIndex-backed running_at against the covers_key() scan it replaced.

std::vector<std::size_t> running_at_reference(const joblog::JobLog& jobs, TimePoint t,
                                              const bgp::Location& loc) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].start_time <= t && jobs[i].end_time > t &&
        jobs[i].partition.covers_key(loc.packed(), jobs.machine().codec())) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(IntervalIndex, RunningAtMatchesReferenceOnScenario) {
  const joblog::JobLog& jobs = scenario().jobs;
  const ras::FatalColumns& cols = scenario().ras.fatal_columns();
  ASSERT_FALSE(cols.empty());
  // Query at real event (time, location) pairs — including rack-level
  // locations, whose two-bucket merge path is easy to get wrong.
  const std::size_t step = std::max<std::size_t>(1, cols.size() / 200);
  for (std::size_t i = 0; i < cols.size(); i += step) {
    const bgp::Location loc = jobs.machine().location_from_packed(cols.loc_key[i]);
    EXPECT_EQ(jobs.running_at(cols.event_time[i], loc),
              running_at_reference(jobs, cols.event_time[i], loc))
        << "event row " << i << " at " << loc.to_string();
  }
}

// ---------------------------------------------------------------------------
// Boundary semantics, pinned with hand-placed jobs. Jobs occupy the
// half-open interval [start, end): a job *is* running at its start instant
// and is *not* running at its end instant, and the overlap predicate is
// start < window_end && end > window_begin. Every indexed query must agree
// with the brute-force references above at exactly these edges.

joblog::JobLog boundary_log() {
  joblog::JobLog jobs;
  const auto exec = jobs.intern_exec("/bin/toy");
  const auto user = jobs.intern_user("user000");
  const auto project = jobs.intern_project("project00");
  const auto add = [&](std::int64_t id, Usec start, Usec end, bgp::MidplaneId m,
                       int count) {
    joblog::JobRecord rec;
    rec.job_id = id;
    rec.exec_id = exec;
    rec.user_id = user;
    rec.project_id = project;
    rec.queue_time = TimePoint(start);
    rec.start_time = TimePoint(start);
    rec.end_time = TimePoint(end);
    rec.partition = testing::bgp_part(m, count);
    jobs.append(rec);
  };
  add(1, 1000, 2000, 0, 1);  // the job whose edges the queries probe
  add(2, 2000, 3000, 0, 1);  // back-to-back successor on the same midplane
  add(3, 1500, 1500, 0, 1);  // zero-duration: never running anywhere
  add(4, 1000, 2000, 1, 1);  // same times, the rack's other midplane
  add(5, 500, 5000, 2, 2);   // wide partition spanning midplanes 2-3
  jobs.finalize();
  return jobs;
}

TEST(IntervalIndexBoundary, RunningAtJobEdges) {
  const joblog::JobLog jobs = boundary_log();
  const bgp::Location m0 = testing::bgp_midplane(0);

  // At the exact start instant the job is running; one tick before, not.
  EXPECT_EQ(jobs.running_at(TimePoint(1000), m0),
            running_at_reference(jobs, TimePoint(1000), m0));
  EXPECT_EQ(jobs.running_at(TimePoint(1000), m0), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(jobs.running_at(TimePoint(999), m0).empty());

  // At the exact end instant the job has stopped — and its back-to-back
  // successor on the same midplane has started: a handoff, never an overlap.
  EXPECT_EQ(jobs.running_at(TimePoint(2000), m0),
            running_at_reference(jobs, TimePoint(2000), m0));
  EXPECT_EQ(jobs.running_at(TimePoint(2000), m0), (std::vector<std::size_t>{4}));

  // A zero-duration job is running at no instant, not even its own start.
  const auto at_1500 = jobs.running_at(TimePoint(1500), m0);
  EXPECT_EQ(at_1500, running_at_reference(jobs, TimePoint(1500), m0));
  EXPECT_EQ(at_1500, (std::vector<std::size_t>{1}));
}

TEST(IntervalIndexBoundary, RunningAtRackMergesBothMidplanes) {
  const joblog::JobLog jobs = boundary_log();
  const bgp::Location rack0 = testing::bgp_rack(0);
  // Jobs 1 (midplane 0) and 4 (midplane 1) both run at t=1500 under rack 0;
  // the two-bucket merge must return them once each, index-sorted.
  EXPECT_EQ(jobs.running_at(TimePoint(1500), rack0),
            running_at_reference(jobs, TimePoint(1500), rack0));
  EXPECT_EQ(jobs.running_at(TimePoint(1500), rack0), (std::vector<std::size_t>{1, 2}));
  // A wide partition's job appears once even though it fills two buckets.
  const bgp::Location rack1 = testing::bgp_rack(1);
  EXPECT_EQ(jobs.running_at(TimePoint(1500), rack1), (std::vector<std::size_t>{0}));
}

TEST(OverlappingBoundary, WindowEdgesAreHalfOpen) {
  const joblog::JobLog jobs = boundary_log();

  // Job 1 ends exactly at the window's begin: excluded (end > begin fails).
  EXPECT_EQ(jobs.overlapping(TimePoint(2000), TimePoint(2500)),
            overlapping_reference(jobs, TimePoint(2000), TimePoint(2500)));
  for (const std::size_t i : jobs.overlapping(TimePoint(2000), TimePoint(2500))) {
    EXPECT_NE(jobs[i].job_id, 1);
  }

  // Job 2 starts exactly at the window's end: excluded (start < end fails).
  EXPECT_EQ(jobs.overlapping(TimePoint(500), TimePoint(2000)),
            overlapping_reference(jobs, TimePoint(500), TimePoint(2000)));
  for (const std::size_t i : jobs.overlapping(TimePoint(500), TimePoint(2000))) {
    EXPECT_NE(jobs[i].job_id, 2);
  }

  // A zero-duration job strictly inside the window *does* overlap it (its
  // [1500, 1500) interval intersects [1000, 2000) under the strict
  // inequalities) even though it is never running — the one place the two
  // predicates deliberately disagree.
  const auto wide = jobs.overlapping(TimePoint(1000), TimePoint(2000));
  EXPECT_EQ(wide, overlapping_reference(jobs, TimePoint(1000), TimePoint(2000)));
  bool saw_zero_duration = false;
  for (const std::size_t i : wide) saw_zero_duration |= jobs[i].job_id == 3;
  EXPECT_TRUE(saw_zero_duration);
}

TEST(OverlappingBoundary, RandomizedEdgeAlignedWindows) {
  const joblog::JobLog& jobs = scenario().jobs;
  Rng rng(13);
  // Windows whose edges are *exactly* job start/end times — the alignment a
  // uniform sampler almost never produces and binary searches get wrong.
  for (int i = 0; i < 100; ++i) {
    const joblog::JobRecord& a = jobs[rng.uniform_index(jobs.size())];
    const joblog::JobRecord& b = jobs[rng.uniform_index(jobs.size())];
    const TimePoint edges[2] = {rng.bernoulli(0.5) ? a.start_time : a.end_time,
                                rng.bernoulli(0.5) ? b.start_time : b.end_time};
    const TimePoint begin = std::min(edges[0], edges[1]);
    const TimePoint end = std::max(edges[0], edges[1]);
    EXPECT_EQ(jobs.overlapping(begin, end), overlapping_reference(jobs, begin, end))
        << "window [" << begin.usec() << ", " << end.usec() << ")";
    const bgp::Location loc = testing::bgp_midplane(
        static_cast<bgp::MidplaneId>(rng.uniform_index(
            static_cast<std::size_t>(machine::bgp_model().midplane_count()))));
    EXPECT_EQ(jobs.running_at(begin, loc), running_at_reference(jobs, begin, loc));
    EXPECT_EQ(jobs.running_at(end, loc), running_at_reference(jobs, end, loc));
  }
}

// ---------------------------------------------------------------------------
// The streaming matcher against the std::set-collecting reference matcher,
// over the streaming filter's own groups.

TEST(MatchInterruptions, EqualsSetBasedReferenceOnScenario) {
  const stream::FrontEndConfig config;
  const stream::FrontEndResult front =
      stream::run_streaming_frontend(scenario().ras, scenario().jobs, config);
  ASSERT_FALSE(front.filtered.groups.empty());
  const core::MatchResult& fast = front.matches;
  const core::MatchResult ref =
      oracle::match_interruptions(front.filtered, scenario().jobs, config.match_window);

  ASSERT_EQ(fast.jobs_by_group.size(), ref.jobs_by_group.size());
  for (std::size_t g = 0; g < fast.jobs_by_group.size(); ++g) {
    EXPECT_EQ(fast.jobs_by_group[g], ref.jobs_by_group[g]) << "group " << g;
  }
  EXPECT_EQ(fast.group_by_job, ref.group_by_job);
  ASSERT_EQ(fast.interruptions.size(), ref.interruptions.size());
  for (std::size_t i = 0; i < fast.interruptions.size(); ++i) {
    EXPECT_EQ(fast.interruptions[i].group, ref.interruptions[i].group);
    EXPECT_EQ(fast.interruptions[i].job, ref.interruptions[i].job);
    EXPECT_EQ(fast.interruptions[i].time, ref.interruptions[i].time);
  }
}

// ---------------------------------------------------------------------------
// CRC32: slicing-by-16 against known vectors and a bytewise reference.

std::uint32_t crc32_bytewise(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(bin::crc32("", 0), 0x00000000u);
  EXPECT_EQ(bin::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(bin::crc32("a", 1), 0xE8B7BE43u);
  const std::string quick = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(bin::crc32(quick.data(), quick.size()), 0x414FA339u);
}

TEST(Crc32, MatchesBytewiseReferenceAcrossLengthsAndAlignments) {
  Rng rng(11);
  std::string data(4096, '\0');
  for (char& c : data) c = static_cast<char>(rng.uniform_index(256));
  // Lengths around the slicing boundaries and odd start offsets
  // exercise both the sliced body and the bytewise tail.
  for (std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{15}, std::size_t{16},
                            std::size_t{17}, std::size_t{63}, std::size_t{64},
                            std::size_t{1000}, std::size_t{4000}}) {
      ASSERT_LE(offset + len, data.size());
      EXPECT_EQ(bin::crc32(data.data() + offset, len),
                crc32_bytewise(data.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel binary read: identical events, accounting and errors, for both
// formats — v2 and the v3 store each have their own pooled reader.

using testing::expect_logs_equal;
using testing::expect_reports_equal;

struct Encoded {
  const char* name;
  std::string bytes;
};

/// The scenario log as v2 bytes and as v3 bytes (default write options).
std::vector<Encoded> scenario_ras_bytes() {
  std::stringstream v2, v3;
  ras::write_binary(v2, scenario().ras);
  ras::write_binary(v3, scenario().ras, {});
  return {{"v2", v2.str()}, {"v3", v3.str()}};
}

ras::RasLog read_with(const std::string& bytes, const ras::ReadOptions& opts) {
  std::istringstream in(bytes);
  return ras::read_binary(in, ras::default_catalog(), opts);
}

TEST(ParallelBinaryRead, CleanFileMatchesSequential) {
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    SCOPED_TRACE(e.name);
    std::istringstream seq_in(e.bytes);
    IngestReport seq_rep;
    const ras::RasLog seq = ras::read_binary(seq_in, ras::default_catalog(),
                                             ParseMode::Strict, &seq_rep);
    std::istringstream par_in(e.bytes);
    IngestReport par_rep;
    const ras::RasLog par = ras::read_binary(par_in, ras::default_catalog(),
                                             ParseMode::Strict, &par_rep, nullptr, &pool);
    expect_logs_equal(seq, par);
    expect_reports_equal(seq_rep, par_rep);
    EXPECT_EQ(par.size(), scenario().ras.size());
  }
}

TEST(ParallelBinaryRead, DamagedFileMatchesSequentialInLenientMode) {
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    SCOPED_TRACE(e.name);
    Rng rng(23);
    for (int round = 0; round < 8; ++round) {
      std::string bytes = e.bytes;
      // Flip a few bits anywhere — headers, payloads, the dictionary.
      for (int f = 0; f < 3; ++f) {
        const std::size_t at = rng.uniform_index(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_index(8)));
      }
      std::istringstream seq_in(bytes);
      IngestReport seq_rep;
      const ras::RasLog seq = ras::read_binary(seq_in, ras::default_catalog(),
                                               ParseMode::Lenient, &seq_rep);
      std::istringstream par_in(bytes);
      IngestReport par_rep;
      const ras::RasLog par = ras::read_binary(par_in, ras::default_catalog(),
                                               ParseMode::Lenient, &par_rep, nullptr, &pool);
      expect_logs_equal(seq, par);
      expect_reports_equal(seq_rep, par_rep);
    }
  }
}

TEST(ParallelBinaryRead, StrictErrorsMatchSequentialByteForByte) {
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    SCOPED_TRACE(e.name);
    std::string bytes = e.bytes;
    // Corrupt one payload byte deep in the record stream (in v3, the count
    // field the pooled reader sizes the block's slot from): the strict
    // error must be the same CRC message, same offset, from both readers.
    std::size_t p = bytes.find("CBLK");
    for (int skip = 0; skip < 10; ++skip) p = bytes.find("CBLK", p + 1);
    ASSERT_NE(p, std::string::npos);
    bytes[p + 16] = static_cast<char>(bytes[p + 16] ^ 0x55);

    std::string seq_what;
    std::string par_what;
    try {
      std::istringstream in(bytes);
      ras::read_binary(in);
      FAIL() << "expected ParseError";
    } catch (const ParseError& ex) {
      seq_what = ex.what();
    }
    try {
      std::istringstream in(bytes);
      ras::read_binary(in, ras::default_catalog(), ParseMode::Strict, nullptr, nullptr,
                       &pool);
      FAIL() << "expected ParseError";
    } catch (const ParseError& ex) {
      par_what = ex.what();
    }
    EXPECT_EQ(seq_what, par_what);
    EXPECT_NE(seq_what.find("CRC mismatch"), std::string::npos) << seq_what;
  }
}

TEST(ParallelBinaryRead, TruncatedFileMatchesSequential) {
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    SCOPED_TRACE(e.name);
    std::string bytes = e.bytes;
    bytes.resize(bytes.size() * 2 / 3);  // cut mid-block

    std::istringstream seq_in(bytes);
    IngestReport seq_rep;
    const ras::RasLog seq = ras::read_binary(seq_in, ras::default_catalog(),
                                             ParseMode::Lenient, &seq_rep);
    std::istringstream par_in(bytes);
    IngestReport par_rep;
    const ras::RasLog par = ras::read_binary(par_in, ras::default_catalog(),
                                             ParseMode::Lenient, &par_rep, nullptr, &pool);
    expect_logs_equal(seq, par);
    expect_reports_equal(seq_rep, par_rep);
    EXPECT_GT(seq_rep.malformed(IngestReason::BinaryFrame), 0u);
  }
}

TEST(ParallelBinaryRead, RejectedRecordsLeaveHolesThatCloseLikeSequential) {
  // A catalog without every third errcode: a lenient read drops those
  // records inside their blocks, and (under a predicate) the exact filter
  // drops more, so the pooled readers' slots fill only in part. Closing
  // the holes must move the records down and renumber the fatal log indices
  // exactly as the sequential reader's push-as-you-go numbering does.
  std::vector<ras::ErrcodeInfo> kept;
  const auto all = ras::default_catalog().all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 3 != 0) kept.push_back(all[i]);
  }
  const ras::Catalog partial(std::move(kept));
  const synth::ScenarioConfig cfg = synth::small_scenario(42);
  bin::ReadPredicate window;
  window.time_begin = cfg.start + 2 * kUsecPerDay;
  window.time_end = cfg.start + 6 * kUsecPerDay;
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE(std::string(e.name) + (filtered ? " filtered" : " unfiltered"));
      ras::ReadOptions opts;
      opts.mode = ParseMode::Lenient;
      if (filtered) opts.predicate = window;
      IngestReport seq_rep, par_rep;
      opts.report = &seq_rep;
      std::istringstream seq_in(e.bytes);
      const ras::RasLog seq = ras::read_binary(seq_in, partial, opts);
      opts.report = &par_rep;
      opts.pool = &pool;
      std::istringstream par_in(e.bytes);
      const ras::RasLog par = ras::read_binary(par_in, partial, opts);
      expect_logs_equal(seq, par);
      expect_reports_equal(seq_rep, par_rep);
      EXPECT_GT(seq_rep.malformed(IngestReason::UnknownErrcode), 0u);
      EXPECT_LT(seq.size(), scenario().ras.size());
      EXPECT_FALSE(seq.fatal_columns().empty());
    }
  }
}

TEST(ParallelBinaryRead, OversizedBlocksFallBackToSequential) {
  // v3 'C' blocks of 100 records, framed by hand after a writer-made
  // prefix: each declares more records than the pooled reader's 64-record
  // slot, a non-canonical shape the sequential reader decodes as is.
  const ras::RasLog& log = scenario().ras;
  std::stringstream v3;
  ras::write_binary(v3, log, {});
  const std::string written = v3.str();
  const std::vector<std::size_t> frames = testing::frame_offsets(written);
  ASSERT_GT(frames.size(), 6u);
  std::string bytes = written.substr(0, frames[6]);  // header + M M D D L L

  std::vector<std::uint32_t> loc_idx(log.size());
  std::vector<std::uint32_t> keys;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const std::uint32_t key = log[i].location.packed();
    const auto it = std::find(keys.begin(), keys.end(), key);
    loc_idx[i] = static_cast<std::uint32_t>(it - keys.begin());
    if (it == keys.end()) keys.push_back(key);
  }
  constexpr std::size_t kBlock = 100;
  std::string payload, raw;
  for (std::size_t base = 0; base < log.size(); base += kBlock) {
    payload.clear();
    ras::encode_ras_column_block(payload, &log[base], std::min(kBlock, log.size() - base),
                                 loc_idx.data() + base, true, machine::bgp_model().codec(),
                                 raw);
    bin::append_frame(bytes, payload);
  }

  par::ThreadPool pool(4);
  for (const ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
    ras::ReadOptions opts;
    opts.mode = mode;
    IngestReport seq_rep, par_rep;
    opts.report = &seq_rep;
    const ras::RasLog seq = read_with(bytes, opts);
    opts.report = &par_rep;
    opts.pool = &pool;
    const ras::RasLog par = read_with(bytes, opts);
    expect_logs_equal(seq, par);
    expect_reports_equal(seq_rep, par_rep);
    EXPECT_EQ(seq.size(), log.size());
  }
}

TEST(ParallelBinaryRead, PushdownNeverReadsZoneRejectedBlocks) {
  // The documented contract: under a predicate the pooled v3 reader takes
  // a footer-covered block that the footer zone map rejects on the
  // footer's word — the block's bytes are never read, so its CRC is never
  // checked. Damage there changes the sequential read only.
  const synth::ScenarioConfig cfg = synth::small_scenario(42);
  std::stringstream v3;
  ras::write_binary(v3, scenario().ras, {});
  const std::string intact = v3.str();
  const std::size_t first = testing::frames_with_tag(intact, 'C').front();
  std::uint32_t size = 0;
  std::memcpy(&size, intact.data() + first + 4, sizeof size);
  ASSERT_LT(scenario().ras[63].event_time, cfg.start + 3 * kUsecPerDay);

  ras::ReadOptions opts;
  opts.predicate.time_begin = cfg.start + 3 * kUsecPerDay;
  par::ThreadPool pool(4);
  const auto read_both = [&](const std::string& bytes, ParseMode mode, IngestReport& seq_rep,
                             IngestReport& par_rep) {
    ras::ReadOptions o = opts;
    o.mode = mode;
    o.report = &seq_rep;
    ras::RasLog seq = read_with(bytes, o);
    o.report = &par_rep;
    o.pool = &pool;
    ras::RasLog par = read_with(bytes, o);
    return std::pair{std::move(seq), std::move(par)};
  };

  // A stale CRC in the first 'C' block, which lies wholly before the window.
  std::string stale = intact;
  stale[first + bin::kBlockHeaderBytes + 40] ^= 0x10;
  {
    IngestReport seq_rep, par_rep;
    const auto [seq, par] = read_both(stale, ParseMode::Lenient, seq_rep, par_rep);
    expect_logs_equal(seq, par);
    EXPECT_EQ(seq_rep.records_ok(), par_rep.records_ok());
    EXPECT_EQ(seq_rep.malformed(IngestReason::BinaryFrame), 64u);
    EXPECT_EQ(par_rep.malformed(IngestReason::BinaryFrame), 0u);
    ASSERT_FALSE(seq_rep.samples().empty());
    EXPECT_EQ(seq_rep.samples().back().reason, IngestReason::BinaryFrame);
    EXPECT_TRUE(par_rep.samples().empty());
    testing::expect_reports_equal_but_unread_blocks(seq_rep, par_rep, 64);

    // Strict: only the sequential reader sees the CRC; the pooled read
    // returns the window's records.
    ras::ReadOptions o = opts;
    std::istringstream in(stale);
    EXPECT_THROW(ras::read_binary(in, ras::default_catalog(), o), ParseError);
    o.pool = &pool;
    expect_logs_equal(read_with(stale, o), par);
  }

  // An in-block zone map that lies and admits the block (CRC repaired): the
  // sequential reader decodes it and exact-filters every record, charging
  // 64 records to ok; the pooled reader follows the footer.
  std::string lie = intact;
  const std::size_t zone = first + bin::kBlockHeaderBytes + 1 + sizeof(std::uint32_t);
  const std::int64_t forever = INT64_MAX;
  std::memcpy(lie.data() + zone + 8, &forever, sizeof forever);
  const std::uint32_t crc = bin::crc32(lie.data() + first + bin::kBlockHeaderBytes, size);
  std::memcpy(lie.data() + first + 8, &crc, sizeof crc);
  {
    IngestReport seq_rep, par_rep;
    const auto [seq, par] = read_both(lie, ParseMode::Lenient, seq_rep, par_rep);
    expect_logs_equal(seq, par);
    EXPECT_EQ(seq_rep.records_ok(), par_rep.records_ok() + 64);
    EXPECT_EQ(seq_rep.total_malformed(), 0u);
    EXPECT_EQ(par_rep.total_malformed(), 0u);
    testing::expect_reports_equal_but_unread_blocks(seq_rep, par_rep, 64);
  }
}

}  // namespace
}  // namespace coral
