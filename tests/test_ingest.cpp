#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bgp_fixture.hpp"
#include "corrupt.hpp"
#include "frame_oracle.hpp"
#include "read_equal.hpp"

#include "coral/common/error.hpp"
#include "coral/common/ingest.hpp"
#include "coral/common/parallel.hpp"
#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/log.hpp"
#include "coral/stream/session.hpp"
#include "coral/synth/scenario.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: constructed logs with exactly known contents, so accounting
// assertions can be exact.

ras::RasLog make_ras_log(std::size_t n) {
  const ras::Catalog& cat = ras::default_catalog();
  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  std::vector<ras::RasEvent> events(n);
  for (std::size_t i = 0; i < n; ++i) {
    ras::RasEvent& ev = events[i];
    ev.event_time = base + static_cast<Usec>(i) * kUsecPerMin;
    ev.location = testing::bgp_midplane(static_cast<int>(i % 80));
    ev.errcode = i % 2 == 0 ? cat.fatal_ids()[i % cat.fatal_ids().size()]
                            : cat.nonfatal_ids()[i % cat.nonfatal_ids().size()];
    ev.severity = i % 2 == 0 ? ras::Severity::Fatal : ras::Severity::Info;
    ev.serial = static_cast<std::uint32_t>(i);
    events[i] = ev;
  }
  return ras::RasLog(std::move(events), cat);
}

joblog::JobLog make_job_log(std::size_t n) {
  const TimePoint base = TimePoint::from_calendar(2009, 1, 5);
  joblog::JobLog log;
  for (std::size_t i = 0; i < n; ++i) {
    joblog::JobRecord j;
    j.job_id = static_cast<std::int64_t>(1000 + i);
    j.exec_id = log.intern_exec("/bin/app" + std::to_string(i % 7));
    j.user_id = log.intern_user("user" + std::to_string(i % 5));
    j.project_id = log.intern_project("proj" + std::to_string(i % 3));
    j.start_time = base + static_cast<Usec>(i) * 10 * kUsecPerMin;
    j.queue_time = j.start_time - 5 * kUsecPerMin;
    j.end_time = j.start_time + 30 * kUsecPerMin;
    j.partition = testing::bgp_part(static_cast<int>(i % 40) * 2, 2);
    j.exit_code = i % 4 == 0 ? 137 : 0;
    log.append(j);
  }
  log.finalize();
  return log;
}

std::string ras_csv(const ras::RasLog& log) {
  std::ostringstream out;
  log.write_csv(out);
  return out.str();
}

std::string job_csv(const joblog::JobLog& log) {
  std::ostringstream out;
  log.write_csv(out);
  return out.str();
}

std::string a_fatal_errcode() {
  const ras::Catalog& cat = ras::default_catalog();
  return cat.info(cat.fatal_ids()[0]).name;
}

// Byte offsets of every framed block in a binary log image.
std::vector<std::size_t> block_offsets(const std::string& bytes) {
  std::vector<std::size_t> offs;
  for (std::size_t p = bytes.find("CBLK"); p != std::string::npos;
       p = bytes.find("CBLK", p + 1)) {
    offs.push_back(p);
  }
  return offs;
}

// ---------------------------------------------------------------------------
// IngestReport mechanics.

TEST(IngestReport, CountsAndSummary) {
  IngestReport rep;
  EXPECT_TRUE(rep.clean());
  rep.add_ok(10);
  rep.add_malformed(IngestReason::RowWidth, 123, "1,2,3", "expected 10 fields");
  rep.add_malformed(IngestReason::RowWidth, 456, "4,5", "expected 10 fields");
  rep.add_malformed(IngestReason::BadTimestamp, 789, "row", "bad ts");
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok(), 10u);
  EXPECT_EQ(rep.malformed(IngestReason::RowWidth), 2u);
  EXPECT_EQ(rep.malformed(IngestReason::BadTimestamp), 1u);
  EXPECT_EQ(rep.total_malformed(), 3u);
  EXPECT_EQ(rep.records_seen(), 13u);
  EXPECT_EQ(rep.summary(), "10 ok, 3 malformed (row_width: 2, bad_timestamp: 1)");
  ASSERT_EQ(rep.samples().size(), 3u);
  EXPECT_EQ(rep.samples()[0].byte_offset, 123u);
  EXPECT_EQ(rep.samples()[0].snippet, "1,2,3");
}

TEST(IngestReport, MergeFoldsCountsAndSamples) {
  IngestReport a, b;
  a.add_ok(2);
  a.add_malformed(IngestReason::BadNumber, 1, "x", "d");
  b.add_ok(3);
  b.add_malformed(IngestReason::BadNumber, 2, "y", "d");
  b.add_malformed_bulk(IngestReason::BinaryFrame, 64);
  a.merge(b);
  EXPECT_EQ(a.records_ok(), 5u);
  EXPECT_EQ(a.malformed(IngestReason::BadNumber), 2u);
  EXPECT_EQ(a.malformed(IngestReason::BinaryFrame), 64u);
  EXPECT_EQ(a.samples().size(), 2u);
}

TEST(IngestReport, ReportsMalformedCountersToSink) {
  IngestReport rep;
  rep.add_ok(5);
  rep.add_malformed(IngestReason::BadSeverity, 0, "", "d");
  rep.add_malformed(IngestReason::BadSeverity, 1, "", "d");
  obs::Collector c;
  rep.report_malformed(&c, "ingest.test");
  rep.report_malformed(nullptr, "ingest.test");  // no collector: a no-op
  const obs::Snapshot snap = c.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "ingest.test.malformed.bad_severity");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_TRUE(snap.spans.empty());
}

// ---------------------------------------------------------------------------
// Lenient CSV ingest: inject K malformed rows, demand exactly K rejections
// with the right reasons, and survivors identical to the clean log.

TEST(RasCsvLenient, ExactMalformedAccounting) {
  const std::size_t n = 50;
  const ras::RasLog clean = make_ras_log(n);
  std::string csv = ras_csv(clean);

  const std::string code = a_fatal_errcode();
  const std::string ts = "2009-01-05-15.08.12.285324";
  // One row per reason; earlier fields valid so the target field decides.
  csv += "1,2,3\n";                                                       // RowWidth
  csv += "xx,m,c,s," + code + ",FATAL," + ts + ",R00-M0,7,m\n";           // BadNumber
  csv += "1,m,c,s,NOT_A_REAL_CODE,FATAL," + ts + ",R00-M0,7,m\n";         // UnknownErrcode
  csv += "1,m,c,s," + code + ",SUPERBAD," + ts + ",R00-M0,7,m\n";         // BadSeverity
  csv += "1,m,c,s," + code + ",FATAL,2026-02-31-00.00.00,R00-M0,7,m\n";   // BadTimestamp
  csv += "1,m,c,s," + code + ",FATAL," + ts + ",Z99-??,7,m\n";            // BadLocation
  csv += "1,m,c,s," + code + ",FATAL," + ts + ",R00-M0,notanint,m\n";     // BadNumber

  std::istringstream in(csv);
  IngestReport rep;
  const ras::RasLog parsed =
      ras::RasLog::read_csv(in, ras::default_catalog(), ParseMode::Lenient, &rep);

  EXPECT_EQ(rep.records_ok(), n);
  EXPECT_EQ(rep.total_malformed(), 7u);
  EXPECT_EQ(rep.malformed(IngestReason::RowWidth), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadNumber), 2u);
  EXPECT_EQ(rep.malformed(IngestReason::UnknownErrcode), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadSeverity), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadTimestamp), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadLocation), 1u);

  // Survivors are exactly the clean log.
  ASSERT_EQ(parsed.size(), clean.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].event_time, clean[i].event_time);
    EXPECT_EQ(parsed[i].errcode, clean[i].errcode);
    EXPECT_EQ(parsed[i].location, clean[i].location);
  }

  // Samples carry usable forensics.
  ASSERT_FALSE(rep.samples().empty());
  EXPECT_GT(rep.samples()[0].byte_offset, 0u);
  EXPECT_FALSE(rep.samples()[0].detail.empty());
}

TEST(JobCsvLenient, ExactMalformedAccounting) {
  const std::size_t n = 40;
  const joblog::JobLog clean = make_job_log(n);
  std::string csv = job_csv(clean);

  csv += "1,2,3\n";                                                        // RowWidth
  csv += "xx,/b,a,p,1.0,2.0,3.0,R00-M0,0\n";                               // BadNumber
  csv += "1,/b,a,p,notatime,2.0,3.0,R00-M0,0\n";                           // BadTimestamp
  csv += "1,/b,a,p,1.0,2.0,1e99,R00-M0,0\n";                               // BadTimestamp (range)
  csv += "1,/b,a,p,1.0,2.0,3.0,Z99,0\n";                                   // BadLocation
  csv += "1,/b,a,p,1.0,2.0,3.0,R00-M0,notanint\n";                         // BadNumber
  csv += "1,/b,a,p,1.0,500.0,3.0,R00-M0,0\n";                              // BadRecord (end<start)

  std::istringstream in(csv);
  IngestReport rep;
  const joblog::JobLog parsed =
      joblog::JobLog::read_csv(in, ParseMode::Lenient, &rep);

  EXPECT_EQ(rep.records_ok(), n);
  EXPECT_EQ(rep.total_malformed(), 7u);
  EXPECT_EQ(rep.malformed(IngestReason::RowWidth), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadNumber), 2u);
  EXPECT_EQ(rep.malformed(IngestReason::BadTimestamp), 2u);
  EXPECT_EQ(rep.malformed(IngestReason::BadLocation), 1u);
  EXPECT_EQ(rep.malformed(IngestReason::BadRecord), 1u);

  ASSERT_EQ(parsed.size(), clean.size());
  // Rejected rows must leave no stray entries in the string tables.
  EXPECT_EQ(parsed.exec_files(), clean.exec_files());
  EXPECT_EQ(parsed.users(), clean.users());
  EXPECT_EQ(parsed.projects(), clean.projects());
}

TEST(CsvStrict, StillThrowsOnFirstDefect) {
  std::string csv = ras_csv(make_ras_log(5));
  csv += "1,2,3\n";
  std::istringstream in(csv);
  EXPECT_THROW(ras::RasLog::read_csv(in), ParseError);

  std::string jcsv = job_csv(make_job_log(5));
  jcsv += "xx,/b,a,p,1.0,2.0,3.0,R00-M0,0\n";
  std::istringstream jin(jcsv);
  EXPECT_THROW(joblog::JobLog::read_csv(jin), ParseError);
}

// Downstream results from lenient-mode survivors must equal the clean run:
// Table I summaries and the matching/co-analysis headline counts.
TEST(LenientIngest, SurvivorsReproduceCleanAnalysis) {
  const synth::SynthResult& data = [] () -> const synth::SynthResult& {
    static const synth::SynthResult r = synth::generate(synth::small_scenario(77, 8));
    return r;
  }();

  std::string rcsv = ras_csv(data.ras);
  std::string jcsv = job_csv(data.jobs);
  const std::string code = a_fatal_errcode();
  rcsv += "1,m,c,s," + code + ",FATAL,2026-02-31-00.00.00,R00-M0,7,m\n";
  rcsv += "1,2,3\n";
  jcsv += "1,/b,a,p,1.0,500.0,3.0,R00-M0,0\n";
  jcsv += "garbage line that is not a record\n";

  obs::Collector c;
  const Context ctx = Context().with_obs(&c);
  std::istringstream rin(rcsv), jin(jcsv);
  const core::IngestedLogs logs =
      core::ingest_csv_logs(rin, jin, ParseMode::Lenient, ctx);

  EXPECT_FALSE(logs.clean());
  EXPECT_EQ(logs.ras_report.total_malformed(), 2u);
  EXPECT_EQ(logs.jobs_report.total_malformed(), 2u);
  EXPECT_EQ(logs.ras_report.records_ok(), data.ras.size());
  EXPECT_EQ(logs.jobs_report.records_ok(), data.jobs.size());

  // Table I material.
  const ras::RasLogSummary rs = logs.ras.summary();
  const ras::RasLogSummary rs_clean = data.ras.summary();
  EXPECT_EQ(rs.total_records, rs_clean.total_records);
  EXPECT_EQ(rs.fatal_records, rs_clean.fatal_records);
  EXPECT_EQ(rs.fatal_errcode_types, rs_clean.fatal_errcode_types);
  EXPECT_EQ(logs.jobs.summary().total_jobs, data.jobs.summary().total_jobs);
  EXPECT_EQ(logs.jobs.summary().distinct_jobs, data.jobs.summary().distinct_jobs);

  // Filtering + matching headline counts.
  const core::CoAnalysisResult clean = core::run_coanalysis(data.ras, data.jobs);
  const core::CoAnalysisResult survived = core::run_coanalysis(logs.ras, logs.jobs);
  EXPECT_EQ(survived.filtered.groups.size(), clean.filtered.groups.size());
  EXPECT_EQ(survived.matches.interruptions.size(), clean.matches.interruptions.size());
  EXPECT_EQ(survived.system_interruptions, clean.system_interruptions);
  EXPECT_EQ(survived.application_interruptions, clean.application_interruptions);

  // Ingest health reached the collector: one reader span, one counter per
  // rejection reason.
  const obs::Snapshot snap = c.snapshot();
  std::size_t ras_spans = 0;
  for (const obs::SpanRecord& s : snap.spans) {
    if (s.name != "ingest.ras_csv") continue;
    ++ras_spans;
    EXPECT_EQ(s.in, data.ras.size() + 2);
    EXPECT_EQ(s.out, data.ras.size());
  }
  EXPECT_EQ(ras_spans, 1u);
  EXPECT_EQ(snap.counter_value("ingest.ras_csv.malformed.bad_timestamp"), 1u);
}

// ---------------------------------------------------------------------------
// Binary v2: framed blocks, CRC, redundancy, exact loss accounting.

TEST(RasBinaryLenient, DroppedRecordBlockIsCountedExactly) {
  const std::size_t n = 1000;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log);
  std::string bytes = buf.str();

  const std::vector<std::size_t> offs = block_offsets(bytes);
  ASSERT_GE(offs.size(), 4u);  // dict, dict copy, >= 2 record blocks
  // Corrupt one payload byte of the first record block (dict copies are
  // blocks 0 and 1): its CRC fails and exactly 64 records drop.
  bytes[offs[2] + 12] = static_cast<char>(bytes[offs[2] + 12] ^ 0xFF);

  std::istringstream in(bytes);
  IngestReport rep;
  const ras::RasLog parsed = ras::read_binary(in, ras::default_catalog(),
                                              ParseMode::Lenient, &rep);
  EXPECT_EQ(parsed.size(), n - 64);
  EXPECT_EQ(rep.records_ok(), n - 64);
  EXPECT_EQ(rep.malformed(IngestReason::BinaryFrame), 64u);
  EXPECT_EQ(rep.records_seen(), n);
  EXPECT_FALSE(rep.samples().empty());
}

TEST(RasBinaryLenient, DictionaryRedundancySurvivesOneCopy) {
  const std::size_t n = 300;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log);
  std::string bytes = buf.str();

  const std::vector<std::size_t> offs = block_offsets(bytes);
  ASSERT_GE(offs.size(), 3u);
  bytes[offs[0] + 12] = static_cast<char>(bytes[offs[0] + 12] ^ 0xFF);

  std::istringstream in(bytes);
  IngestReport rep;
  const ras::RasLog parsed = ras::read_binary(in, ras::default_catalog(),
                                              ParseMode::Lenient, &rep);
  // The second dictionary copy carries the load: nothing is lost.
  EXPECT_EQ(parsed.size(), n);
  EXPECT_EQ(rep.records_ok(), n);
  EXPECT_EQ(rep.total_malformed(), 0u);
  EXPECT_FALSE(rep.samples().empty());  // the dropped frame is still reported
}

TEST(JobBinaryLenient, TruncationRecoversPrefixAndCountsTheRest) {
  const std::size_t n = 500;
  const joblog::JobLog log = make_job_log(n);
  std::stringstream buf;
  joblog::write_binary(buf, log);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() * 3 / 5);

  std::istringstream in(bytes);
  IngestReport rep;
  const joblog::JobLog parsed = joblog::read_binary(in, ParseMode::Lenient, &rep);
  EXPECT_GT(parsed.size(), 0u);
  EXPECT_LT(parsed.size(), n);
  EXPECT_EQ(rep.records_ok(), parsed.size());
  EXPECT_EQ(rep.malformed(IngestReason::BinaryFrame), n - parsed.size());
  EXPECT_EQ(rep.records_seen(), n);
}

TEST(BinaryStrict, ErrorsCarryByteOffsets) {
  const ras::RasLog log = make_ras_log(200);
  std::stringstream buf;
  ras::write_binary(buf, log);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 10);  // cut inside the final block
  std::istringstream in(bytes);
  try {
    ras::read_binary(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos) << e.what();
  }
}

TEST(BinaryStrict, CountMismatchDetected) {
  // Deleting one whole record block leaves every remaining frame intact;
  // only the dictionary's total count exposes the loss.
  const std::size_t n = 1000;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log);
  std::string bytes = buf.str();
  const std::vector<std::size_t> offs = block_offsets(bytes);
  ASSERT_GE(offs.size(), 4u);
  bytes.erase(offs[2], offs[3] - offs[2]);

  std::istringstream in(bytes);
  EXPECT_THROW(ras::read_binary(in), ParseError);

  // Lenient mode books the same loss as BinaryFrame records.
  std::istringstream in2(bytes);
  IngestReport rep;
  const ras::RasLog parsed =
      ras::read_binary(in2, ras::default_catalog(), ParseMode::Lenient, &rep);
  EXPECT_EQ(parsed.size(), n - 64);
  EXPECT_EQ(rep.malformed(IngestReason::BinaryFrame), 64u);
}

// ---------------------------------------------------------------------------
// Corpus fuzz-smoke: every corruption class over both logs and both
// serializations. Lenient ingest must never throw, never hang, and keep its
// accounting invariants; these are the tests scripts/ci.sh runs under
// ASan/UBSan in the fuzz-smoke stage.

void expect_lenient_ras_csv_survives(const std::string& csv, std::uint64_t seed) {
  std::istringstream in(csv);
  IngestReport rep;
  ras::RasLog parsed;
  ASSERT_NO_THROW(parsed = ras::RasLog::read_csv(in, ras::default_catalog(),
                                                 ParseMode::Lenient, &rep))
      << "seed " << seed;
  EXPECT_EQ(rep.records_ok(), parsed.size()) << "seed " << seed;
}

void expect_lenient_job_csv_survives(const std::string& csv, std::uint64_t seed) {
  std::istringstream in(csv);
  IngestReport rep;
  joblog::JobLog parsed;
  ASSERT_NO_THROW(parsed = joblog::JobLog::read_csv(in, ParseMode::Lenient, &rep))
      << "seed " << seed;
  EXPECT_EQ(rep.records_ok(), parsed.size()) << "seed " << seed;
}

// Corrupt only past the header line: a destroyed header is untrustworthy-
// schema territory, which even lenient mode refuses by design.
std::string corrupt_body(const std::string& csv, Rng& rng, int flips) {
  const std::size_t head_end = csv.find('\n') + 1;
  return csv.substr(0, head_end) +
         testing::flip_bits(csv.substr(head_end), rng, flips);
}

TEST(FuzzSmokeCsv, RasCorpus) {
  const std::string csv = ras_csv(make_ras_log(200));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    expect_lenient_ras_csv_survives(corrupt_body(csv, rng, 8), seed);
    expect_lenient_ras_csv_survives(testing::truncate_bytes(csv, rng, 0.3), seed);
    expect_lenient_ras_csv_survives(testing::mangle_csv_fields(csv, rng, 5), seed);
    expect_lenient_ras_csv_survives(testing::duplicate_csv_rows(csv, rng, 3), seed);
    expect_lenient_ras_csv_survives(testing::insert_garbage_rows(csv, rng, 4), seed);
    expect_lenient_ras_csv_survives(testing::unbalance_csv_quote(csv, rng), seed);
  }
}

TEST(FuzzSmokeCsv, JobCorpus) {
  const std::string csv = job_csv(make_job_log(150));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    expect_lenient_job_csv_survives(corrupt_body(csv, rng, 8), seed);
    expect_lenient_job_csv_survives(testing::truncate_bytes(csv, rng, 0.3), seed);
    expect_lenient_job_csv_survives(testing::mangle_csv_fields(csv, rng, 5), seed);
    expect_lenient_job_csv_survives(testing::duplicate_csv_rows(csv, rng, 3), seed);
    expect_lenient_job_csv_survives(testing::insert_garbage_rows(csv, rng, 4), seed);
    expect_lenient_job_csv_survives(testing::unbalance_csv_quote(csv, rng), seed);
  }
}

TEST(FuzzSmokeCsv, RecoversAtLeast99PercentOfIntactRows) {
  const std::size_t n = 2000;
  const std::string csv = ras_csv(make_ras_log(n));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const std::string bad = corrupt_body(csv, rng, 3);
    std::istringstream in(bad);
    IngestReport rep;
    const ras::RasLog parsed = ras::RasLog::read_csv(in, ras::default_catalog(),
                                                     ParseMode::Lenient, &rep);
    EXPECT_GE(parsed.size(), n * 99 / 100) << "seed " << seed << ": " << rep.summary();
  }
}

TEST(FuzzSmokeBinary, RasCorpus) {
  const std::size_t n = 600;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log);
  const std::string bytes = buf.str();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (const std::string& bad :
         {testing::flip_bits(bytes, rng, 6), testing::truncate_bytes(bytes, rng, 0.3),
          testing::flip_bits(testing::truncate_bytes(bytes, rng, 0.5), rng, 3)}) {
      std::istringstream in(bad);
      IngestReport rep;
      ras::RasLog parsed;
      ASSERT_NO_THROW(parsed = ras::read_binary(in, ras::default_catalog(),
                                                ParseMode::Lenient, &rep))
          << "seed " << seed;
      EXPECT_EQ(rep.records_ok(), parsed.size()) << "seed " << seed;
      EXPECT_LE(parsed.size(), n) << "seed " << seed;
    }
  }
}

TEST(FuzzSmokeBinary, JobCorpus) {
  const std::size_t n = 400;
  const joblog::JobLog log = make_job_log(n);
  std::stringstream buf;
  joblog::write_binary(buf, log);
  const std::string bytes = buf.str();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (const std::string& bad :
         {testing::flip_bits(bytes, rng, 6), testing::truncate_bytes(bytes, rng, 0.3),
          testing::flip_bits(testing::truncate_bytes(bytes, rng, 0.5), rng, 3)}) {
      std::istringstream in(bad);
      IngestReport rep;
      joblog::JobLog parsed;
      ASSERT_NO_THROW(parsed = joblog::read_binary(in, ParseMode::Lenient, &rep))
          << "seed " << seed;
      EXPECT_EQ(rep.records_ok(), parsed.size()) << "seed " << seed;
      EXPECT_LE(parsed.size(), n) << "seed " << seed;
    }
  }
}

TEST(FuzzSmokeBinary, RecoversAtLeast99PercentAfterBitFlips) {
  // 64-record blocks: one flip costs at most one block, so two flips on a
  // 13k-record log stay under the 1% loss budget.
  const std::size_t n = 13000;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log);
  const std::string bytes = buf.str();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::string bad = testing::flip_bits(bytes, rng, 2);
    std::istringstream in(bad);
    IngestReport rep;
    const ras::RasLog parsed =
        ras::read_binary(in, ras::default_catalog(), ParseMode::Lenient, &rep);
    EXPECT_GE(parsed.size(), n * 99 / 100) << "seed " << seed << ": " << rep.summary();
    EXPECT_EQ(rep.records_seen(), n) << "seed " << seed;
  }
}

// A packed location key damaged with its frame CRC repaired: framing passes
// it, so the per-key location validator alone must catch it. Every record
// that carries the key (one v2 record, or every record of a v3 dictionary
// entry) is a BadLocation, nothing else moves, and strict mode refuses.
TEST(FuzzSmokeBinary, ResealedBadLocationKeyIsBadLocation) {
  const std::size_t n = 600;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream job_buf;
  joblog::write_binary(job_buf, make_job_log(200));
  for (const std::uint32_t version : {2u, 3u}) {
    std::stringstream buf;
    ras::write_binary(buf, log, {.version = version});
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("v" + std::to_string(version) + ", seed " + std::to_string(seed));
      Rng rng(seed);
      std::uint32_t key = 0;
      const std::string bad = testing::reseal_bad_location_key(buf.str(), rng, &key);
      ASSERT_NE(bad, buf.str());
      std::size_t carriers = 0;
      for (const ras::RasEvent& ev : log) carriers += ev.location.packed() == key ? 1 : 0;
      const std::size_t expected_bad = version == 2 ? 1 : carriers;

      std::istringstream in(bad);
      IngestReport rep;
      ras::RasLog parsed;
      ASSERT_NO_THROW(parsed = ras::read_binary(in, ras::default_catalog(),
                                                ParseMode::Lenient, &rep));
      EXPECT_EQ(rep.malformed(IngestReason::BadLocation), expected_bad);
      EXPECT_EQ(rep.total_malformed(), expected_bad);
      EXPECT_EQ(rep.records_ok(), parsed.size());
      EXPECT_EQ(rep.records_ok() + rep.total_malformed(), n);
      // Survivors are the originals in order, less records that carried the key.
      ASSERT_EQ(parsed.size(), n - expected_bad);
      std::size_t i = 0;
      for (const ras::RasEvent& got : parsed) {
        while (i < n && !(log[i].event_time == got.event_time && log[i].serial == got.serial)) {
          ASSERT_EQ(log[i].location.packed(), key) << "record " << i << " lost";
          ++i;
        }
        ASSERT_LT(i, n);
        EXPECT_EQ(got.errcode, log[i].errcode);
        EXPECT_EQ(got.location, log[i].location);
        EXPECT_EQ(got.severity, log[i].severity);
        ++i;
      }

      // A session fed the same bytes reads exactly what the offline read did.
      stream::Session session("resealed", stream::SessionConfig{}, Context{});
      ASSERT_EQ(session.feed(stream::Source::Ras, bad), stream::Admission::Accepted);
      ASSERT_EQ(session.feed(stream::Source::Jobs, job_buf.str()), stream::Admission::Accepted);
      const stream::SessionResult live = session.finalize();
      testing::expect_logs_equal(parsed, live.ras);
      testing::expect_reports_equal(rep, live.ras_report);

      std::istringstream strict_in(bad);
      EXPECT_THROW(ras::read_binary(strict_in, ras::default_catalog(), ParseMode::Strict),
                   ParseError);
    }
  }
}

// -- v3 columnar store: the same corruption classes plus v3-only structure
// -- (compressed column bodies, zone maps) with and without a predicate.
// -- Lenient ingest must never throw; without a predicate ok == appended
// -- exactly, and with one ok may exceed appended because valid records the
// -- exact filter rejects still count as ok.

TEST(FuzzSmokeV3, RasCorpus) {
  // Every damaged input is also read through a 4-thread pool, which must
  // reproduce the sequential log and report — up to the documented
  // pushdown difference: under the predicate the pooled reader never reads
  // the blocks the footer zone maps reject (here the records before it).
  const std::size_t n = 600;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log, {});
  const std::string bytes = buf.str();
  bin::ReadPredicate pred;
  pred.time_begin = TimePoint::from_calendar(2009, 1, 5) + 2 * kUsecPerHour;
  std::uint64_t unread = 0;
  for (std::size_t b = 0; b < n; b += 64) {
    const std::size_t end = std::min(n, b + 64);
    if (log[end - 1].event_time < pred.time_begin) unread += end - b;
  }
  ASSERT_GT(unread, 0u);
  par::ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (const std::string& bad :
         {testing::flip_bits(bytes, rng, 6), testing::truncate_bytes(bytes, rng, 0.3),
          testing::flip_block_payload(bytes, rng, 'C', 3),
          testing::flip_block_payload(bytes, rng, 'S', 2),
          testing::lie_in_zone_map(bytes, rng)}) {
      for (const bool filtered : {false, true}) {
        std::istringstream in(bad);
        IngestReport rep;
        ras::ReadOptions opts;
        opts.mode = ParseMode::Lenient;
        opts.report = &rep;
        if (filtered) opts.predicate = pred;
        ras::RasLog parsed;
        ASSERT_NO_THROW(parsed = ras::read_binary(in, ras::default_catalog(), opts))
            << "seed " << seed;
        if (filtered) {
          EXPECT_GE(rep.records_ok(), parsed.size()) << "seed " << seed;
        } else {
          EXPECT_EQ(rep.records_ok(), parsed.size()) << "seed " << seed;
        }
        EXPECT_LE(parsed.size(), n) << "seed " << seed;

        SCOPED_TRACE("pooled, seed " + std::to_string(seed) +
                     (filtered ? ", filtered" : ""));
        std::istringstream pooled_in(bad);
        IngestReport pooled_rep;
        opts.report = &pooled_rep;
        opts.pool = &pool;
        ras::RasLog pooled;
        ASSERT_NO_THROW(pooled = ras::read_binary(pooled_in, ras::default_catalog(), opts));
        testing::expect_logs_equal(parsed, pooled);
        if (filtered) {
          testing::expect_reports_equal_but_unread_blocks(rep, pooled_rep, unread);
        } else {
          testing::expect_reports_equal(rep, pooled_rep);
        }
      }
    }
  }
}

TEST(FuzzSmokeV3, JobCorpus) {
  const std::size_t n = 400;
  const joblog::JobLog log = make_job_log(n);
  std::stringstream buf;
  joblog::write_binary(buf, log, {});
  const std::string bytes = buf.str();
  bin::ReadPredicate pred;
  pred.time_begin = TimePoint::from_calendar(2009, 1, 5) + 2 * kUsecPerHour;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (const std::string& bad :
         {testing::flip_bits(bytes, rng, 6), testing::truncate_bytes(bytes, rng, 0.3),
          testing::flip_block_payload(bytes, rng, 'C', 3),
          testing::lie_in_zone_map(bytes, rng)}) {
      for (const bool filtered : {false, true}) {
        std::istringstream in(bad);
        IngestReport rep;
        joblog::ReadOptions opts;
        opts.mode = ParseMode::Lenient;
        opts.report = &rep;
        if (filtered) opts.predicate = pred;
        joblog::JobLog parsed;
        ASSERT_NO_THROW(parsed = joblog::read_binary(in, opts)) << "seed " << seed;
        EXPECT_LE(parsed.size(), n) << "seed " << seed;
      }
    }
  }
}

TEST(FuzzSmokeV3, DamagedColumnBlockIsCountedExactly) {
  // One stale-CRC 'C' frame in an otherwise intact v3 file: the framing
  // layer drops exactly that block and the top-up charges exactly its
  // declared records to BinaryFrame.
  const std::size_t n = 640;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log, {});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const std::string bad = testing::flip_block_payload(buf.str(), rng, 'C', 1);
    std::istringstream in(bad);
    IngestReport rep;
    const ras::RasLog parsed =
        ras::read_binary(in, ras::default_catalog(), ParseMode::Lenient, &rep);
    EXPECT_EQ(parsed.size(), n - 64) << "seed " << seed;
    EXPECT_EQ(rep.malformed(IngestReason::BinaryFrame), 64u) << "seed " << seed;
    EXPECT_EQ(rep.records_seen(), n) << "seed " << seed;
  }
}

TEST(FuzzSmokeV3, ZoneMapLiesNeverBreakAccounting) {
  // A zone map that lies (repaired CRC) may cost a pushdown read records,
  // but the ledger stays exact: nothing is double-counted or lost twice.
  const std::size_t n = 640;
  const ras::RasLog log = make_ras_log(n);
  std::stringstream buf;
  ras::write_binary(buf, log, {});
  bin::ReadPredicate pred;
  pred.time_begin = TimePoint::from_calendar(2009, 1, 5);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const std::string bad = testing::lie_in_zone_map(buf.str(), rng);
    std::istringstream in(bad);
    IngestReport rep;
    ras::ReadOptions opts;
    opts.mode = ParseMode::Lenient;
    opts.report = &rep;
    opts.predicate = pred;
    ras::RasLog parsed;
    ASSERT_NO_THROW(parsed = ras::read_binary(in, ras::default_catalog(), opts))
        << "seed " << seed;
    EXPECT_EQ(rep.total_malformed(), 0u) << "seed " << seed;
    EXPECT_LE(parsed.size(), n) << "seed " << seed;
  }
}

// -- Frame walk: bin::FrameAssembler, whatever the push chunking, against
// -- the frozen istream BlockReader of tests/frame_oracle.hpp.

/// Everything one frame walk yields: intact payloads with their block
/// offsets, the damage report, and (strict mode) the error that ended it.
struct FrameWalk {
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> offsets;
  IngestReport damage;
  std::string error;
};

FrameWalk oracle_walk(const std::string& region, ParseMode mode) {
  FrameWalk w;
  std::istringstream in(region);
  oracle::BlockReader reader(in, mode, &w.damage, "binary log");
  std::string payload;
  try {
    while (reader.next(payload)) {
      w.payloads.push_back(payload);
      w.offsets.push_back(reader.block_offset());
    }
  } catch (const ParseError& e) {
    w.error = e.what();
  }
  return w;
}

/// `push_bytes` 0 walks through bin::walk_frames, the offline readers' path;
/// anything else pushes chunks of that size by hand.
FrameWalk assembler_walk(const std::string& region, ParseMode mode, std::size_t push_bytes) {
  FrameWalk w;
  bin::FrameAssembler frames(mode, &w.damage, "binary log");
  const auto take = [&](std::string_view payload, std::uint64_t payload_offset) {
    w.payloads.emplace_back(payload);
    w.offsets.push_back(payload_offset - bin::kBlockHeaderBytes);
  };
  try {
    if (push_bytes == 0) {
      bin::walk_frames(frames, region, take);
    } else {
      std::string payload;
      const auto drain = [&] {
        while (frames.next(payload)) take(payload, frames.block_offset() + bin::kBlockHeaderBytes);
      };
      for (std::size_t at = 0; at < region.size(); at += push_bytes) {
        frames.push(std::string_view(region).substr(at, push_bytes));
        drain();
      }
      frames.finish();
      drain();
    }
  } catch (const ParseError& e) {
    w.error = e.what();
  }
  return w;
}

void expect_walks_equal(const FrameWalk& got, const FrameWalk& want) {
  EXPECT_EQ(got.payloads, want.payloads);
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.damage.malformed(IngestReason::BinaryFrame),
            want.damage.malformed(IngestReason::BinaryFrame));
  ASSERT_EQ(got.damage.samples().size(), want.damage.samples().size());
  for (std::size_t i = 0; i < got.damage.samples().size(); ++i) {
    EXPECT_EQ(got.damage.samples()[i].byte_offset, want.damage.samples()[i].byte_offset);
    EXPECT_EQ(got.damage.samples()[i].detail, want.damage.samples()[i].detail);
  }
}

TEST(FuzzSmokeFrames, AssemblerMatchesFrozenBlockReader) {
  struct Image {
    std::string name;
    std::string bytes;  ///< whole file, header included, as the mutators expect
    char record_tag;
  };
  std::vector<Image> images;
  for (const std::uint32_t version : {2u, 3u}) {
    std::stringstream ras, jobs;
    ras::write_binary(ras, make_ras_log(600), {.version = version});
    joblog::write_binary(jobs, make_job_log(400), {.version = version});
    const char tag = version == 2 ? 'R' : 'C';
    images.push_back({"ras v" + std::to_string(version), ras.str(), tag});
    images.push_back({"job v" + std::to_string(version), jobs.str(), tag});
  }
  std::size_t cases = 0;
  for (const Image& image : images) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      const std::string& intact = image.bytes;
      for (const std::string& bad :
           {intact, testing::flip_bits(intact, rng, 6), testing::truncate_bytes(intact, rng, 0.3),
            testing::flip_block_payload(intact, rng, image.record_tag, 2),
            testing::insert_fake_markers(intact, rng, 3),
            testing::insert_fake_markers(testing::flip_bits(intact, rng, 2), rng, 2)}) {
        const std::string region = bad.substr(8);  // the frames behind the file header
        for (const ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
          const FrameWalk want = oracle_walk(region, mode);
          for (const std::size_t push : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                                         std::size_t{65536}, region.size(), std::size_t{0}}) {
            SCOPED_TRACE(image.name + ", seed " + std::to_string(seed) + ", push " +
                         std::to_string(push) +
                         (mode == ParseMode::Strict ? ", strict" : ", lenient"));
            expect_walks_equal(assembler_walk(region, mode, push), want);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4u * 4u * 6u * 2u * 6u);
}

TEST(IngestCsvLogs, StrictCleanPairIsClean) {
  const ras::RasLog ras_log = make_ras_log(30);
  const joblog::JobLog jobs = make_job_log(20);
  std::istringstream rin(ras_csv(ras_log)), jin(job_csv(jobs));
  const core::IngestedLogs logs = core::ingest_csv_logs(rin, jin);
  EXPECT_TRUE(logs.clean());
  EXPECT_EQ(logs.ras.size(), ras_log.size());
  EXPECT_EQ(logs.jobs.size(), jobs.size());
  EXPECT_EQ(logs.ras_report.records_ok(), ras_log.size());
}

}  // namespace
}  // namespace coral
