// Equality pins for the columnar hot path: the SoA fatal view against the
// AoS records, the per-midplane interval index against brute-force job
// scans, the streaming matcher against the historical std::set collection,
// the sliced CRC32 against a bytewise reference, and the binary RAS reader
// on shapes and damage the writer never makes.
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
  ras::write_binary(buf, scenario().ras, {.version = 2});
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
      ras::read_binary(in, ras::default_catalog(), {.mode = ParseMode::Lenient, .report = &rep});
  ASSERT_LT(parsed.size(), scenario().ras.size());
  EXPECT_GT(rep.malformed(IngestReason::BinaryFrame), 0u);
  expect_columns_match_events(parsed);
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

// The Partition overload walks the partition's midplane buckets; pinned to a
// scan over every job with Partition::overlaps, at job start and end instants.
std::vector<std::size_t> running_on_reference(const joblog::JobLog& jobs, TimePoint t,
                                              const bgp::Partition& part) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].start_time <= t && jobs[i].end_time > t && jobs[i].partition.overlaps(part)) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(IntervalIndex, RunningAtPartitionMatchesReferenceOnScenario) {
  const joblog::JobLog& jobs = scenario().jobs;
  const int n = jobs.machine().midplane_count();
  const bgp::Partition parts[] = {
      testing::bgp_part(0, 1),  testing::bgp_part(37, 1), testing::bgp_part(n - 1, 1),
      testing::bgp_part(6, 2),  // one rack
      testing::bgp_part(0, 32), testing::bgp_part(32, 32), testing::bgp_part(0, 64),
      testing::bgp_part(16, 64), testing::bgp_part(0, n),  // the whole machine
  };
  Rng rng(29);
  for (int i = 0; i < 150; ++i) {
    const joblog::JobRecord& job = jobs[rng.uniform_index(jobs.size())];
    for (const TimePoint t : {job.start_time, job.end_time}) {
      for (const bgp::Partition& part : parts) {
        EXPECT_EQ(jobs.running_at(t, part), running_on_reference(jobs, t, part))
            << "partition [" << part.first_midplane() << ", " << part.end_midplane()
            << ") at " << t.usec();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Boundary semantics, pinned with hand-placed jobs. Jobs occupy the
// half-open interval [start, end): a job *is* running at its start instant
// and is *not* running at its end instant. Every indexed query must agree
// with the brute-force reference above at exactly these edges.

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

TEST(OverlappingBoundary, RandomizedEdgeAlignedWindows) {
  const joblog::JobLog& jobs = scenario().jobs;
  Rng rng(13);
  // Query instants that are *exactly* job start/end times — the alignment a
  // uniform sampler almost never produces and binary searches get wrong.
  for (int i = 0; i < 100; ++i) {
    const joblog::JobRecord& a = jobs[rng.uniform_index(jobs.size())];
    const joblog::JobRecord& b = jobs[rng.uniform_index(jobs.size())];
    const TimePoint edges[2] = {rng.bernoulli(0.5) ? a.start_time : a.end_time,
                                rng.bernoulli(0.5) ? b.start_time : b.end_time};
    const TimePoint begin = std::min(edges[0], edges[1]);
    const TimePoint end = std::max(edges[0], edges[1]);
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
// Binary RAS read: one reader walks both versions, whatever the options say
// about a pool, and the pins below hold it to the written records on input
// the writer never makes.

using testing::expect_logs_equal;
using testing::expect_reports_equal;

struct Encoded {
  const char* name;
  std::string bytes;
};

/// The scenario log as v2 bytes and as v3 bytes (default write options).
std::vector<Encoded> scenario_ras_bytes() {
  std::stringstream v2, v3;
  ras::write_binary(v2, scenario().ras, {.version = 2});
  ras::write_binary(v3, scenario().ras, {});
  return {{"v2", v2.str()}, {"v3", v3.str()}};
}

ras::RasLog read_with(const std::string& bytes, const ras::ReadOptions& opts,
                      const ras::Catalog& catalog = ras::default_catalog()) {
  std::istringstream in(bytes);
  return ras::read_binary(in, catalog, opts);
}

// ReadOptions::pool stays for source compatibility only, and the
// ParallelBinaryRead pins hold a read given a pool to the read without one,
// clean, damaged and truncated.

TEST(ParallelBinaryRead, CleanFileMatchesSequential) {
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    for (const ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
      SCOPED_TRACE(std::string(e.name) + (mode == ParseMode::Strict ? ", strict" : ", lenient"));
      IngestReport seq_rep, par_rep;
      const ras::RasLog seq = read_with(e.bytes, {.mode = mode, .report = &seq_rep});
      const ras::RasLog par =
          read_with(e.bytes, {.mode = mode, .report = &par_rep, .pool = &pool});
      expect_logs_equal(seq, par);
      expect_reports_equal(seq_rep, par_rep);
      EXPECT_EQ(par.size(), scenario().ras.size());
      EXPECT_EQ(par_rep.total_malformed(), 0u);
    }
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
      SCOPED_TRACE("round " + std::to_string(round));
      IngestReport seq_rep, par_rep;
      const ras::RasLog seq =
          read_with(bytes, {.mode = ParseMode::Lenient, .report = &seq_rep});
      const ras::RasLog par =
          read_with(bytes, {.mode = ParseMode::Lenient, .report = &par_rep, .pool = &pool});
      expect_logs_equal(seq, par);
      expect_reports_equal(seq_rep, par_rep);
      EXPECT_GT(seq_rep.total_malformed(), 0u);
    }
  }
}

TEST(ParallelBinaryRead, TruncatedFileMatchesSequential) {
  par::ThreadPool pool(4);
  for (const Encoded& e : scenario_ras_bytes()) {
    SCOPED_TRACE(e.name);
    std::string bytes = e.bytes;
    bytes.resize(bytes.size() * 2 / 3);  // cut mid-block

    IngestReport seq_rep, par_rep;
    const ras::RasLog seq = read_with(bytes, {.mode = ParseMode::Lenient, .report = &seq_rep});
    const ras::RasLog par =
        read_with(bytes, {.mode = ParseMode::Lenient, .report = &par_rep, .pool = &pool});
    expect_logs_equal(seq, par);
    expect_reports_equal(seq_rep, par_rep);
    EXPECT_GT(seq_rep.malformed(IngestReason::BinaryFrame), 0u);
    EXPECT_LT(seq.size(), scenario().ras.size());
  }
}

TEST(RasBinaryRead, CatalogRejectsKeepFatalLogIndexConsistent) {
  // A catalog without every third errcode: a lenient read drops those
  // records inside their blocks, and (under a predicate) the exact filter
  // drops more. The survivors are the written records in order, and each
  // fatal log_index still points at its FATAL survivor.
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
  const ras::RasLog& written = scenario().ras;
  for (const Encoded& e : scenario_ras_bytes()) {
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE(std::string(e.name) + (filtered ? " filtered" : " unfiltered"));
      ras::ReadOptions opts;
      opts.mode = ParseMode::Lenient;
      if (filtered) opts.predicate = window;
      IngestReport rep;
      opts.report = &rep;
      const ras::RasLog got = read_with(e.bytes, opts, partial);

      std::vector<ras::RasEvent> want;
      for (const ras::RasEvent& ev : written) {
        const bool in_window = !filtered || (ev.event_time >= *window.time_begin &&
                                             ev.event_time < *window.time_end);
        if (in_window && partial.find(ras::default_catalog().info(ev.errcode).name)) {
          want.push_back(ev);
        }
      }
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].event_time, want[i].event_time) << "record " << i;
        EXPECT_EQ(got[i].serial, want[i].serial) << "record " << i;
        EXPECT_EQ(partial.info(got[i].errcode).name,
                  ras::default_catalog().info(want[i].errcode).name)
            << "record " << i;
      }
      expect_columns_match_events(got);
      EXPECT_GT(rep.malformed(IngestReason::UnknownErrcode), 0u);
      EXPECT_LT(got.size(), written.size());
      EXPECT_FALSE(got.fatal_columns().empty());
    }
  }
}

TEST(RasBinaryRead, HundredRecordColumnBlocksDecode) {
  // v3 'C' blocks of 100 records, framed by hand after a writer-made
  // prefix: a non-canonical shape (the writer's blocks hold 64) that
  // decodes as is in either mode.
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
  std::string scratch;
  for (std::size_t base = 0; base < log.size(); base += kBlock) {
    bin::append_frame(bytes, ras::encode_ras_column_block(
                                 scratch, &log[base], std::min(kBlock, log.size() - base),
                                 loc_idx.data() + base, machine::bgp_model().codec()));
  }

  for (const ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
    IngestReport rep;
    const ras::RasLog got = read_with(bytes, {.mode = mode, .report = &rep});
    expect_logs_equal(log, got);
    EXPECT_EQ(rep.records_ok(), log.size());
    EXPECT_EQ(rep.total_malformed(), 0u);
  }
}

TEST(RasBinaryRead, FooterRejectedBlockIsCrcCheckedAndZoneTested) {
  // Under a predicate every block is read: one the segment footer's zone
  // map rejects still has its CRC checked and its own zone map tested, so
  // damage there counts as it would anywhere else, with a pool or without.
  const synth::ScenarioConfig cfg = synth::small_scenario(42);
  std::stringstream v3;
  ras::write_binary(v3, scenario().ras, {});
  const std::string intact = v3.str();
  const std::size_t first = testing::frames_with_tag(intact, 'C').front();
  std::uint32_t size = 0;
  std::memcpy(&size, intact.data() + first + 4, sizeof size);
  ASSERT_LT(scenario().ras[63].event_time, cfg.start + 3 * kUsecPerDay);

  ras::ReadOptions window;
  window.predicate.time_begin = cfg.start + 3 * kUsecPerDay;
  window.mode = ParseMode::Lenient;
  IngestReport intact_rep;
  window.report = &intact_rep;
  const ras::RasLog want = read_with(intact, window);

  // A stale CRC in the first 'C' block, which lies wholly before the window.
  std::string stale = intact;
  stale[first + bin::kBlockHeaderBytes + 40] ^= 0x10;
  // An in-block zone map that lies and admits the block (CRC repaired).
  std::string lie = intact;
  const std::size_t zone = first + bin::kBlockHeaderBytes + 1 + sizeof(std::uint32_t);
  const std::int64_t forever = INT64_MAX;
  std::memcpy(lie.data() + zone + 8, &forever, sizeof forever);
  const std::uint32_t crc = bin::crc32(lie.data() + first + bin::kBlockHeaderBytes, size);
  std::memcpy(lie.data() + first + 8, &crc, sizeof crc);

  par::ThreadPool pool(4);
  for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p != nullptr ? "pool" : "no pool");
    ras::ReadOptions o = window;
    o.pool = p;
    o.mode = ParseMode::Strict;
    o.report = nullptr;
    try {
      read_with(stale, o);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& ex) {
      EXPECT_NE(std::string(ex.what()).find("block CRC mismatch"), std::string::npos)
          << ex.what();
    }

    // Lenient: the stale block's 64 records are charged to BinaryFrame,
    // with a damage sample.
    o.mode = ParseMode::Lenient;
    IngestReport stale_rep;
    o.report = &stale_rep;
    expect_logs_equal(read_with(stale, o), want);
    EXPECT_EQ(stale_rep.malformed(IngestReason::BinaryFrame), 64u);
    EXPECT_EQ(stale_rep.total_malformed(), 64u);
    EXPECT_EQ(stale_rep.records_ok(), intact_rep.records_ok());
    ASSERT_FALSE(stale_rep.samples().empty());
    EXPECT_EQ(stale_rep.samples().back().reason, IngestReason::BinaryFrame);

    // The lying block is decoded and exact-filtered: its 64 records count
    // as ok and none is returned.
    IngestReport lie_rep;
    o.report = &lie_rep;
    expect_logs_equal(read_with(lie, o), want);
    EXPECT_EQ(lie_rep.records_ok(), intact_rep.records_ok() + 64);
    EXPECT_EQ(lie_rep.total_malformed(), 0u);
  }
}

}  // namespace
}  // namespace coral
