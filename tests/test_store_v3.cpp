// Differential and pushdown suite for the v3 columnar log store: v2 and v3
// must decode to byte-identical logs on every machine / seed / mode, and a
// predicate read must equal a full read plus the same filter while decoding
// strictly fewer blocks.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <unordered_set>

#include "corrupt.hpp"
#include "lz_fixture.hpp"

#include "coral/common/error.hpp"
#include "coral/common/rng.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/machine/model.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/ras/binary_stream.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/synth/intrepid.hpp"
#include "coral/synth/packs.hpp"

namespace coral {
namespace {

void expect_ras_equal(const ras::RasLog& a, const ras::RasLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].event_time, b[i].event_time) << "at " << i;
    ASSERT_EQ(a[i].location, b[i].location) << "at " << i;
    ASSERT_EQ(a[i].errcode, b[i].errcode) << "at " << i;
    ASSERT_EQ(a[i].severity, b[i].severity) << "at " << i;
    ASSERT_EQ(a[i].serial, b[i].serial) << "at " << i;
  }
  // The adopting constructor's fatal gather must match the finalize walk.
  const auto& fa = a.fatal_columns();
  const auto& fb = b.fatal_columns();
  ASSERT_EQ(fa.log_index, fb.log_index);
  ASSERT_EQ(fa.event_time, fb.event_time);
  ASSERT_EQ(fa.errcode, fb.errcode);
  ASSERT_EQ(fa.loc_key, fb.loc_key);
}

void expect_jobs_equal(const joblog::JobLog& a, const joblog::JobLog& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.exec_files(), b.exec_files());
  ASSERT_EQ(a.users(), b.users());
  ASSERT_EQ(a.projects(), b.projects());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].job_id, b[i].job_id) << "at " << i;
    ASSERT_EQ(a[i].exec_id, b[i].exec_id) << "at " << i;
    ASSERT_EQ(a[i].user_id, b[i].user_id) << "at " << i;
    ASSERT_EQ(a[i].project_id, b[i].project_id) << "at " << i;
    ASSERT_EQ(a[i].queue_time, b[i].queue_time) << "at " << i;
    ASSERT_EQ(a[i].start_time, b[i].start_time) << "at " << i;
    ASSERT_EQ(a[i].end_time, b[i].end_time) << "at " << i;
    ASSERT_EQ(a[i].partition, b[i].partition) << "at " << i;
    ASSERT_EQ(a[i].exit_code, b[i].exit_code) << "at " << i;
  }
}

struct Fixture {
  synth::SynthResult data;
  std::string ras_v2, ras_v3, job_v2, job_v3;
};

Fixture make_fixture(const synth::ScenarioConfig& cfg) {
  Fixture f{synth::generate(cfg), {}, {}, {}, {}};
  std::ostringstream r2, r3, j2, j3;
  ras::write_binary(r2, f.data.ras, {.version = 2});
  ras::write_binary(r3, f.data.ras, {});
  joblog::write_binary(j2, f.data.jobs, {.version = 2});
  joblog::write_binary(j3, f.data.jobs, {});
  f.ras_v2 = std::move(r2).str();
  f.ras_v3 = std::move(r3).str();
  f.job_v2 = std::move(j2).str();
  f.job_v3 = std::move(j3).str();
  return f;
}

const Fixture& small_fixture() {
  static const Fixture f = make_fixture(synth::small_scenario(111, 10));
  return f;
}

/// Read the fixture's v2 and v3 images and require equal logs. With `lz`,
/// the v3 images are the ones a writer with LZ compression on produced
/// (tests/lz_fixture.hpp).
void check_differential(const Fixture& f, ParseMode mode, bool lz = false) {
  const machine::MachineModel& machine = f.data.ras.machine();
  const std::string ras_v3 = lz ? testing::lz_image(f.ras_v3) : f.ras_v3;
  const std::string job_v3 = lz ? testing::lz_image(f.job_v3) : f.job_v3;
  ras::ReadOptions ro;
  ro.mode = mode;
  ro.machine = &machine;
  std::istringstream r2(f.ras_v2), r3(ras_v3);
  const ras::RasLog a = ras::read_binary(r2, f.data.ras.catalog(), ro);
  std::istringstream r3b(ras_v3);
  const ras::RasLog b = ras::read_binary(r3b, f.data.ras.catalog(), ro);
  expect_ras_equal(ras::read_binary(r3, f.data.ras.catalog(), ro), a);
  expect_ras_equal(b, a);

  joblog::ReadOptions jo;
  jo.mode = mode;
  jo.machine = &machine;
  std::istringstream j2(f.job_v2), j3(job_v3);
  expect_jobs_equal(joblog::read_binary(j3, jo), joblog::read_binary(j2, jo));
}

TEST(StoreV3, HeaderDeclaresVersion3) {
  const Fixture& f = small_fixture();
  ASSERT_GE(f.ras_v3.size(), 8u);
  EXPECT_EQ(f.ras_v3.substr(0, 4), "CRAS");
  EXPECT_EQ(f.ras_v3[4], 3);
  EXPECT_EQ(f.job_v3.substr(0, 4), "CJOB");
  EXPECT_EQ(f.job_v3[4], 3);
}

TEST(StoreV3, CompressesBothLogs) {
  const Fixture& f = small_fixture();
  EXPECT_LT(f.ras_v3.size(), f.ras_v2.size());
  EXPECT_LT(f.job_v3.size(), f.job_v2.size());
}

TEST(StoreV3, DifferentialStrict) { check_differential(small_fixture(), ParseMode::Strict); }

TEST(StoreV3, DifferentialLenient) {
  check_differential(small_fixture(), ParseMode::Lenient);
}

TEST(StoreV3, DifferentialAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 97ull}) {
    check_differential(make_fixture(synth::small_scenario(seed, 6)), ParseMode::Strict);
  }
}

TEST(StoreV3, DifferentialOnBgq) {
  synth::ScenarioConfig cfg = synth::base_scenario(machine::bgq_model(), 5, 5);
  check_differential(make_fixture(cfg), ParseMode::Strict);
}

TEST(StoreV3, DifferentialOnCompressedStores) {
  // Stores written with LZ compression on still decode to the v2 logs.
  check_differential(small_fixture(), ParseMode::Strict, true);
  check_differential(small_fixture(), ParseMode::Lenient, true);
}

TEST(StoreV3, WriterBytesArePinned) {
  // The writers' v3 images of the small fixture: raw column blocks, with
  // the location dictionary in first-appearance order.
  const Fixture& f = small_fixture();
  EXPECT_EQ(f.ras_v3.size(), 160153u);
  EXPECT_EQ(bin::crc32(f.ras_v3.data(), f.ras_v3.size()), 0xe96644ffu);
  EXPECT_EQ(f.job_v3.size(), 51141u);
  EXPECT_EQ(bin::crc32(f.job_v3.data(), f.job_v3.size()), 0x6e4fed67u);
}

TEST(StoreV3, LzFixtureReproducesCompressedWriterBytes) {
  // The images a writer with LZ compression on produced for the small
  // fixture, which the LZ decode tests take as their inputs.
  const Fixture& f = small_fixture();
  const std::string ras = testing::lz_image(f.ras_v3);
  const std::string jobs = testing::lz_image(f.job_v3);
  EXPECT_EQ(ras.size(), 158026u);
  EXPECT_EQ(bin::crc32(ras.data(), ras.size()), 0x6e29ada3u);
  EXPECT_EQ(jobs.size(), 48301u);
  EXPECT_EQ(bin::crc32(jobs.data(), jobs.size()), 0x37ea4469u);
}

TEST(StoreV3, LocationDictionaryKeepsFirstAppearanceOrder) {
  // Over 8,192 distinct locations: the writer's location index starts with
  // 1,024 slots kept at most half full, so it grows at least five times.
  const ras::Catalog& cat = ras::default_catalog();
  for (const machine::MachineModel* m : {&machine::bgp_model(), &machine::bgq_model()}) {
    SCOPED_TRACE(std::string(m->name()));
    Rng rng(5);
    std::vector<ras::RasEvent> events(24000);
    for (std::size_t i = 0; i < events.size(); ++i) {
      ras::RasEvent& ev = events[i];
      ev.event_time = TimePoint::from_calendar(2009, 1, 5) + static_cast<Usec>(i) * kUsecPerSec;
      const auto mid = static_cast<machine::MidplaneId>(
          rng.uniform_index(static_cast<std::size_t>(m->midplane_count())));
      ev.location = m->location_on_midplane(machine::LocationKind::ComputeCard, mid, rng);
      ev.errcode = cat.nonfatal_ids()[i % cat.nonfatal_ids().size()];
      ev.severity = ras::Severity::Info;
      ev.serial = static_cast<std::uint32_t>(i);
    }
    const ras::RasLog log(std::move(events), cat, *m);
    std::vector<std::uint32_t> first_seen;
    std::unordered_set<std::uint32_t> seen;
    for (const ras::RasEvent& ev : log) {
      if (seen.insert(ev.location.packed()).second) first_seen.push_back(ev.location.packed());
    }
    ASSERT_GT(first_seen.size(), 8192u);

    std::ostringstream out;
    ras::write_binary(out, log, {});
    const std::string bytes = out.str();
    const std::vector<std::size_t> dicts = testing::frames_with_tag(bytes, ras::kRasLocTag);
    ASSERT_EQ(dicts.size(), 2u);
    for (const std::size_t at : dicts) {
      const char* payload = bytes.data() + at + bin::kBlockHeaderBytes;
      std::uint32_t count = 0;
      std::memcpy(&count, payload + 1, sizeof count);
      std::vector<std::uint32_t> keys(count);
      std::memcpy(keys.data(), payload + 1 + sizeof count, count * sizeof(std::uint32_t));
      EXPECT_EQ(keys, first_seen);
    }
    ras::ReadOptions ro;
    ro.machine = m;
    std::istringstream in(bytes);
    expect_ras_equal(ras::read_binary(in, cat, ro), log);
  }
}

TEST(StoreV3, V3ReadAssignsSequentialRecids) {
  const Fixture& f = small_fixture();
  std::istringstream in(f.ras_v3);
  const ras::RasLog log = ras::read_binary(in, f.data.ras.catalog(), {});
  // A RECID is the position plus one, so every record must land at the
  // position it was written from.
  ASSERT_EQ(log.size(), f.data.ras.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i].event_time, f.data.ras[i].event_time) << "at " << i;
    ASSERT_EQ(log[i].serial, f.data.ras[i].serial) << "at " << i;
  }
}

TEST(StoreV3, RasPushdownEqualsFullReadPlusFilter) {
  const Fixture& f = small_fixture();
  const synth::ScenarioConfig cfg = synth::small_scenario(111, 10);
  bin::ReadPredicate pred;
  pred.time_begin = cfg.start + 2 * kUsecPerDay;
  pred.time_end = cfg.start + 5 * kUsecPerDay;

  obs::Collector col;
  ras::ReadOptions po;
  po.predicate = pred;
  po.obs = &col;
  std::istringstream in(f.ras_v3);
  const ras::RasLog got = ras::read_binary(in, f.data.ras.catalog(), po);

  std::vector<ras::RasEvent> want;
  for (std::size_t i = 0; i < f.data.ras.size(); ++i) {
    const auto& e = f.data.ras[i];
    if (e.event_time >= *pred.time_begin && e.event_time < *pred.time_end) {
      want.push_back(e);
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].event_time, want[i].event_time);
    ASSERT_EQ(got[i].errcode, want[i].errcode);
    ASSERT_EQ(got[i].location, want[i].location);
    ASSERT_EQ(got[i].serial, want[i].serial);
  }

  const auto snap = col.snapshot();
  const auto total = snap.counter_value("ingest.ras_binary.blocks_total");
  const auto decoded = snap.counter_value("ingest.ras_binary.blocks_decoded");
  const auto skipped = snap.counter_value("ingest.ras_binary.blocks_skipped");
  EXPECT_EQ(total, decoded + skipped);
  EXPECT_GT(skipped, 0u);
  // A 3-day window of a 10-day file must not decode most of the blocks.
  EXPECT_LT(decoded * 2, total);
}

TEST(StoreV3, JobPushdownEqualsFullReadPlusFilter) {
  const Fixture& f = small_fixture();
  const synth::ScenarioConfig cfg = synth::small_scenario(111, 10);
  bin::ReadPredicate pred;
  pred.time_begin = cfg.start + 2 * kUsecPerDay;
  pred.time_end = cfg.start + 5 * kUsecPerDay;
  for (int m = 0; m < 4; ++m) pred.midplanes.push_back(m);

  obs::Collector col;
  joblog::ReadOptions po;
  po.predicate = pred;
  po.obs = &col;
  std::istringstream in(f.job_v3);
  const joblog::JobLog got = joblog::read_binary(in, po);

  std::size_t want = 0;
  for (std::size_t i = 0; i < f.data.jobs.size(); ++i) {
    const auto& j = f.data.jobs[i];
    const bool time_ok =
        j.end_time >= *pred.time_begin && j.start_time < *pred.time_end;
    const int first = j.partition.first_midplane();
    const int count = j.partition.midplane_count();
    const bool mid_ok = first < 4 && first + count > 0;
    if (time_ok && mid_ok) ++want;
  }
  EXPECT_EQ(got.size(), want);

  const auto snap = col.snapshot();
  EXPECT_EQ(snap.counter_value("ingest.job_binary.blocks_total"),
            snap.counter_value("ingest.job_binary.blocks_decoded") +
                snap.counter_value("ingest.job_binary.blocks_skipped"));
  EXPECT_GT(snap.counter_value("ingest.job_binary.blocks_skipped"), 0u);
}

TEST(StoreV3, PushdownAccountingIsQueryIndependent) {
  const Fixture& f = small_fixture();
  const synth::ScenarioConfig cfg = synth::small_scenario(111, 10);
  bin::ReadPredicate pred;
  pred.time_begin = cfg.start + 2 * kUsecPerDay;
  pred.time_end = cfg.start + 3 * kUsecPerDay;

  // Strict mode: zone-skipped blocks still feed the declared-total check,
  // so a predicate read of an intact file passes it.
  {
    ras::ReadOptions po;
    po.predicate = pred;
    std::istringstream in(f.ras_v3);
    EXPECT_NO_THROW((void)ras::read_binary(in, f.data.ras.catalog(), po));
  }
  // Lenient mode: the damage ledger is the file's, not the query's — an
  // intact file shows zero malformed regardless of how much was skipped.
  {
    IngestReport rep;
    ras::ReadOptions po;
    po.mode = ParseMode::Lenient;
    po.report = &rep;
    po.predicate = pred;
    std::istringstream in(f.ras_v3);
    (void)ras::read_binary(in, f.data.ras.catalog(), po);
    EXPECT_EQ(rep.total_malformed(), 0u);
    EXPECT_LE(rep.records_ok(), f.data.ras.size());
  }
}

TEST(StoreV3, V2FilePushdownStillExact) {
  const Fixture& f = small_fixture();
  const synth::ScenarioConfig cfg = synth::small_scenario(111, 10);
  bin::ReadPredicate pred;
  pred.time_begin = cfg.start + 2 * kUsecPerDay;
  pred.time_end = cfg.start + 5 * kUsecPerDay;

  ras::ReadOptions po;
  po.predicate = pred;
  std::istringstream v2(f.ras_v2), v3(f.ras_v3);
  const ras::RasLog a = ras::read_binary(v2, f.data.ras.catalog(), po);
  const ras::RasLog b = ras::read_binary(v3, f.data.ras.catalog(), po);
  expect_ras_equal(a, b);
}

TEST(StoreV3, StreamDecoderMatchesFileReader) {
  // Feed the framed v3 bytes through the incremental decoder exactly as the
  // fleet session does; the result must equal the one-shot reader's.
  const Fixture& f = small_fixture();
  std::istringstream file(f.ras_v3);
  const ras::RasLog want = ras::read_binary(file, f.data.ras.catalog(), {});

  bin::FramedInput input(ParseMode::Strict, ras::kRasMagic, "binary RAS log");
  ras::RasStreamDecoder dec(f.data.ras.catalog(), ParseMode::Strict,
                            machine::bgp_model());
  const bin::PayloadSink sink = [&](std::string_view payload, std::uint64_t offset) {
    dec.on_payload(payload, offset);
  };
  input.push(f.ras_v3, sink);
  input.finish(sink);
  IngestReport rep;
  const ras::RasLog got = dec.finish(rep, input.damage());
  expect_ras_equal(got, want);
  EXPECT_TRUE(dec.meta().has_value());
  EXPECT_EQ(dec.meta()->schema, ras::kRasSchemaV3);
}

TEST(StoreV3, JobStreamDecoderMatchesFileReader) {
  const Fixture& f = small_fixture();
  std::istringstream file(f.job_v3);
  const joblog::JobLog want = joblog::read_binary(file, {});

  bin::FramedInput input(ParseMode::Strict, joblog::kJobMagic, "binary job log");
  joblog::JobStreamDecoder dec(ParseMode::Strict, machine::bgp_model());
  const bin::PayloadSink sink = [&](std::string_view payload, std::uint64_t offset) {
    dec.on_payload(payload, offset);
  };
  input.push(f.job_v3, sink);
  input.finish(sink);
  IngestReport rep;
  const joblog::JobLog got = dec.finish(rep, input.damage());
  expect_jobs_equal(got, want);
  EXPECT_TRUE(dec.meta().has_value());
  EXPECT_EQ(dec.meta()->schema, joblog::kJobSchemaV3);
}

TEST(StoreV3, StrictRejectsWrongMachineMeta) {
  const Fixture& f = small_fixture();
  ras::ReadOptions ro;
  ro.machine = &machine::bgq_model();
  std::istringstream in(f.ras_v3);
  EXPECT_THROW(ras::read_binary(in, f.data.ras.catalog(), ro), ParseError);

  joblog::ReadOptions jo;
  jo.machine = &machine::bgq_model();
  std::istringstream jn(f.job_v3);
  EXPECT_THROW(joblog::read_binary(jn, jo), Error);
}

TEST(StoreV3, SegmentFootersPresent) {
  // Small segment size -> several footers; the reader must still round-trip.
  const Fixture& f = small_fixture();
  std::ostringstream out;
  ras::write_binary(out, f.data.ras, {.blocks_per_segment = 4});
  const std::string bytes = out.str();
  std::size_t footers = 0;
  bin::FramedInput input(ParseMode::Strict, ras::kRasMagic, "binary RAS log");
  const bin::PayloadSink sink = [&](std::string_view payload, std::uint64_t) {
    if (payload[0] == ras::kRasSegmentTag) ++footers;
  };
  input.push(bytes, sink);
  input.finish(sink);
  EXPECT_GT(footers, 1u);
  std::istringstream rd(bytes);
  expect_ras_equal(ras::read_binary(rd, f.data.ras.catalog(), {}), f.data.ras);
}

}  // namespace
}  // namespace coral
