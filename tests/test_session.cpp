#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bgp_fixture.hpp"
#include "corrupt.hpp"

#include "coral/common/error.hpp"
#include "coral/context.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/joblog/binary_io.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/ras/binary_stream.hpp"
#include "coral/stream/session.hpp"

namespace coral {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: exact-content logs serialized to binary v2 or v3 bytes, so
// parity assertions can compare the session's decode against the offline
// readers byte for byte.

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

std::string ras_bytes(const ras::RasLog& log, std::uint32_t version = 2) {
  std::stringstream buf;
  ras::write_binary(buf, log, {.version = version});
  return buf.str();
}

std::string job_bytes(const joblog::JobLog& log, std::uint32_t version = 2) {
  std::stringstream buf;
  joblog::write_binary(buf, log, {.version = version});
  return buf.str();
}

/// What the offline batch engine says about one (possibly damaged) byte
/// pair: the ground truth every session run must reproduce exactly.
struct Offline {
  ras::RasLog ras;
  joblog::JobLog jobs;
  IngestReport ras_rep, job_rep;
  std::uint64_t result_fp = 0;
  std::uint64_t log_fp = 0;
  std::string analysis_error;  ///< what the engine threw, when it refused the logs
};

Offline offline_run(const std::string& ras_image, const std::string& job_image,
                    ParseMode mode) {
  Offline off;
  std::istringstream ras_in(ras_image), job_in(job_image);
  off.ras = ras::read_binary(ras_in, ras::default_catalog(),
                             {.mode = mode, .report = &off.ras_rep});
  off.jobs = joblog::read_binary(job_in, {.mode = mode, .report = &off.job_rep});
  off.log_fp = fleet::log_fingerprint(off.ras, off.jobs);
  try {
    off.result_fp = fleet::result_fingerprint(core::run_coanalysis(off.ras, off.jobs));
  } catch (const Error& e) {
    off.analysis_error = e.what();
  }
  return off;
}

/// Feed both byte images through a session in a seed-derived random
/// interleaving: random chunk sizes, random source order, occasional pumps.
stream::SessionResult session_run(const std::string& ras_image,
                                  const std::string& job_image, ParseMode mode,
                                  std::uint64_t seed) {
  stream::SessionConfig cfg;
  cfg.mode = mode;
  stream::Session session("t" + std::to_string(seed), cfg, Context{});
  Rng rng(seed);
  std::string_view feeds[2] = {ras_image, job_image};
  while (!feeds[0].empty() || !feeds[1].empty()) {
    const std::size_t pick =
        feeds[0].empty() ? 1 : (feeds[1].empty() ? 0 : rng.uniform_index(2));
    std::string_view& rest = feeds[pick];
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_index(4096), rest.size());
    const auto src = pick == 0 ? stream::Source::Ras : stream::Source::Jobs;
    EXPECT_EQ(session.feed(src, rest.substr(0, n)), stream::Admission::Accepted)
        << "seed " << seed;
    rest.remove_prefix(n);
    if (rng.uniform_index(4) == 0) session.pump();
  }
  return session.finalize();
}

void expect_reports_equal(const IngestReport& got, const IngestReport& want,
                          std::uint64_t seed) {
  EXPECT_EQ(got.records_ok(), want.records_ok()) << "seed " << seed;
  EXPECT_EQ(got.total_malformed(), want.total_malformed()) << "seed " << seed;
  for (int r = 0; r < static_cast<int>(kIngestReasonCount); ++r) {
    const auto reason = static_cast<IngestReason>(r);
    EXPECT_EQ(got.malformed(reason), want.malformed(reason))
        << "seed " << seed << " reason " << r;
  }
}

// ---------------------------------------------------------------------------
// The parity pin: any interleaving of feeds must be byte-identical to the
// offline batch engine on the same logs.

TEST(SessionParity, RandomInterleavingsMatchOfflineEngine) {
  for (const std::uint32_t version : {2u, 3u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string ras_image = ras_bytes(make_ras_log(700), version);
    const std::string job_image = job_bytes(make_job_log(300), version);
    const Offline off = offline_run(ras_image, job_image, ParseMode::Strict);
    ASSERT_EQ(off.analysis_error, "");
    ASSERT_EQ(off.ras.size(), 700u);
    ASSERT_EQ(off.jobs.size(), 300u);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      stream::SessionResult got;
      ASSERT_NO_FATAL_FAILURE(
          got = session_run(ras_image, job_image, ParseMode::Strict, seed));
      EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp)
          << "seed " << seed;
      EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp)
          << "seed " << seed;
      expect_reports_equal(got.ras_report, off.ras_rep, seed);
      expect_reports_equal(got.jobs_report, off.job_rep, seed);
    }
  }
}

TEST(SessionParity, LenientCorruptionAccountingMatchesOffline) {
  for (const std::uint32_t version : {2u, 3u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string ras_clean = ras_bytes(make_ras_log(900), version);
    const std::string job_clean = job_bytes(make_job_log(400), version);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng corrupt_rng(seed);
      const std::string ras_bad = testing::flip_bits(ras_clean, corrupt_rng, 5);
      const std::string job_bad =
          testing::flip_bits(testing::truncate_bytes(job_clean, corrupt_rng, 0.4),
                             corrupt_rng, 2);
      const Offline off = offline_run(ras_bad, job_bad, ParseMode::Lenient);
      if (!off.analysis_error.empty()) {
        // The damage left the engine nothing to analyze (an empty job log):
        // the session's finalize must refuse the same way.
        try {
          session_run(ras_bad, job_bad, ParseMode::Lenient, 100 + seed);
          ADD_FAILURE() << "seed " << seed << ": expected " << off.analysis_error;
        } catch (const Error& e) {
          EXPECT_EQ(e.what(), off.analysis_error) << "seed " << seed;
        }
        continue;
      }
      stream::SessionResult got;
      ASSERT_NO_FATAL_FAILURE(
          got = session_run(ras_bad, job_bad, ParseMode::Lenient, 100 + seed));
      EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp)
          << "seed " << seed;
      EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp)
          << "seed " << seed;
      expect_reports_equal(got.ras_report, off.ras_rep, seed);
      expect_reports_equal(got.jobs_report, off.job_rep, seed);
    }
  }
}

/// Flip one payload bit of every `tag` frame and of the `nth` 'C' frame of a
/// v3 image, leaving every frame header (and so every other frame) intact.
std::string damage_frames(const std::string& image, char tag, std::size_t nth) {
  std::string out = image;
  std::vector<std::size_t> targets = testing::frames_with_tag(image, tag);
  const std::vector<std::size_t> columns = testing::frames_with_tag(image, 'C');
  if (columns.size() <= nth) {
    ADD_FAILURE() << "image has only " << columns.size() << " column blocks";
    return out;
  }
  targets.push_back(columns[nth]);
  for (const std::size_t p : targets) {
    std::uint32_t size = 0;
    std::memcpy(&size, out.data() + p + sizeof bin::kBlockMagic, sizeof size);
    out[p + bin::kBlockHeaderBytes + size / 2] ^= 0x01;
  }
  EXPECT_EQ(testing::frame_offsets(out), testing::frame_offsets(image));
  return out;
}

TEST(SessionParity, FootersBoundTheLossWhenEveryDeclaredTotalIsLost) {
  // Both copies of the declared total (RAS 'D', job 'H') and one column
  // block are damaged; the block's segment footer survives. The lenient
  // ledger must still account for every record of the image: the footer
  // lists the lost block's count, so it is charged to BinaryFrame.
  const std::string ras_clean = ras_bytes(make_ras_log(900), 3);
  const std::string job_clean = job_bytes(make_job_log(400), 3);
  const std::string ras_bad = damage_frames(ras_clean, 'D', 5);
  const std::string job_bad = damage_frames(job_clean, 'H', 2);

  const Offline off = offline_run(ras_bad, job_bad, ParseMode::Lenient);
  EXPECT_EQ(off.ras_rep.records_seen(), 900u);
  EXPECT_EQ(off.ras_rep.malformed(IngestReason::BinaryFrame), ras::kRasRecordsPerBlock);
  EXPECT_EQ(off.job_rep.records_seen(), 400u);
  EXPECT_EQ(off.job_rep.malformed(IngestReason::BinaryFrame), joblog::kJobRecordsPerBlock);
  EXPECT_EQ(off.jobs.size(), 400u - joblog::kJobRecordsPerBlock);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const stream::SessionResult got =
        session_run(ras_bad, job_bad, ParseMode::Lenient, seed);
    EXPECT_EQ(got.ras_report.records_seen(), 900u) << "seed " << seed;
    EXPECT_EQ(got.jobs_report.records_seen(), 400u) << "seed " << seed;
    expect_reports_equal(got.ras_report, off.ras_rep, seed);
    expect_reports_equal(got.jobs_report, off.job_rep, seed);
  }
}

TEST(SessionParity, ConcurrentFeedersWithBackgroundPumping) {
  const std::string ras_image = ras_bytes(make_ras_log(1200));
  const std::string job_image = job_bytes(make_job_log(500));
  const Offline off = offline_run(ras_image, job_image, ParseMode::Strict);
  ASSERT_EQ(off.analysis_error, "");
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  stream::Session session("concurrent", cfg, Context{});
  auto feeder = [&session](stream::Source src, const std::string& image,
                           std::uint64_t seed) {
    Rng rng(seed);
    std::string_view rest = image;
    while (!rest.empty()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_index(2048), rest.size());
      while (session.feed(src, rest.substr(0, n)) != stream::Admission::Accepted) {
        session.pump();
      }
      rest.remove_prefix(n);
    }
  };
  std::thread ras_thread(feeder, stream::Source::Ras, std::cref(ras_image), 11);
  std::thread job_thread(feeder, stream::Source::Jobs, std::cref(job_image), 22);
  // A third participant pumps and snapshots while the feeders run — the
  // live-counter path the /metrics scraper exercises in production.
  std::thread pumper([&session] {
    for (int i = 0; i < 50; ++i) {
      session.pump();
      (void)session.snapshot();
    }
  });
  ras_thread.join();
  job_thread.join();
  pumper.join();
  const stream::SessionResult got = session.finalize();
  EXPECT_EQ(fleet::log_fingerprint(got.ras, got.jobs), off.log_fp);
  EXPECT_EQ(fleet::result_fingerprint(got.analysis), off.result_fp);
}

// ---------------------------------------------------------------------------
// Admission: feed() decodes before it returns, so no frame size refuses a
// feed.

TEST(SessionAdmission, FrameLargerThanTheOldQuotaNeverRefusesAFeed) {
  // One frame declaring an 8 MiB payload (legal: kMaxBlockPayload is
  // 16 MiB), fed 5 MiB in 64 KiB pieces under the default config: the
  // incomplete frame outgrows what used to be the 4 MiB queue quota, and
  // every feed is still taken.
  stream::Session session("bigframe", {}, Context{});
  std::string head(ras::kRasMagic, sizeof ras::kRasMagic);
  head.append(reinterpret_cast<const char*>(&ras::kRasVersion), sizeof ras::kRasVersion);
  const std::uint32_t declared = std::uint32_t{8} << 20;
  const std::uint32_t crc = 0;
  head.append(bin::kBlockMagic, sizeof bin::kBlockMagic);
  head.append(reinterpret_cast<const char*>(&declared), sizeof declared);
  head.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  ASSERT_EQ(session.feed(stream::Source::Ras, head), stream::Admission::Accepted);
  const std::string piece(std::size_t{64} << 10, 'p');
  const std::size_t pieces = (std::size_t{5} << 20) / piece.size();
  for (std::size_t i = 0; i < pieces; ++i) {
    ASSERT_EQ(session.feed(stream::Source::Ras, piece), stream::Admission::Accepted)
        << "piece " << i;
  }
  const stream::SessionStats s = session.snapshot();
  EXPECT_EQ(s.bytes_accepted, head.size() + pieces * piece.size());
  EXPECT_EQ(s.backlog_bytes, bin::kBlockHeaderBytes + pieces * piece.size());
  EXPECT_EQ(s.bytes_decoded, bin::kFileHeaderBytes);
}

// ---------------------------------------------------------------------------
// Lifecycle edges.

TEST(SessionLifecycle, FeedAfterFinalizeIsRejected) {
  stream::Session session("done", {}, Context{});
  const std::string ras_image = ras_bytes(make_ras_log(64));
  ASSERT_EQ(session.feed(stream::Source::Ras, ras_image), stream::Admission::Accepted);
  ASSERT_EQ(session.feed(stream::Source::Jobs, job_bytes(make_job_log(32))),
            stream::Admission::Accepted);
  (void)session.finalize();
  EXPECT_EQ(session.feed(stream::Source::Ras, ras_image), stream::Admission::Rejected);
  EXPECT_TRUE(session.snapshot().finalized);
}

TEST(SessionLifecycle, DoubleFinalizeThrows) {
  stream::Session session("twice", {}, Context{});
  ASSERT_EQ(session.feed(stream::Source::Ras, ras_bytes(make_ras_log(64))),
            stream::Admission::Accepted);
  ASSERT_EQ(session.feed(stream::Source::Jobs, job_bytes(make_job_log(32))),
            stream::Admission::Accepted);
  (void)session.finalize();
  EXPECT_THROW((void)session.finalize(), InvalidArgument);
}

TEST(SessionLifecycle, StrictModeBadMagicThrowsOnFeed) {
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  stream::Session session("strict", cfg, Context{});
  try {
    (void)session.feed(stream::Source::Ras, "NOTALOGX and then some");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "parse error: not a binary RAS log (bad magic)");
  }
}

TEST(SessionLifecycle, StrictModeTruncatedHeaderThrowsAtFinalize) {
  stream::SessionConfig cfg;
  cfg.mode = ParseMode::Strict;
  stream::Session session("stub", cfg, Context{});
  ASSERT_EQ(session.feed(stream::Source::Jobs, "CJ"), stream::Admission::Accepted);
  session.pump();  // 2 bytes: not enough to judge the header yet
  EXPECT_THROW((void)session.finalize(), ParseError);
}

TEST(SessionLifecycle, SnapshotTracksLiveProgress) {
  stream::Session session("live", {}, Context{});
  const std::string image = ras_bytes(make_ras_log(256));
  const std::string jobs_image = job_bytes(make_job_log(64));
  ASSERT_EQ(session.feed(stream::Source::Ras, image), stream::Admission::Accepted);
  // feed() decoded the whole image before it returned.
  const stream::SessionStats after = session.snapshot();
  EXPECT_EQ(after.backlog_bytes, 0u);
  EXPECT_EQ(after.ras_records, 256u);
  EXPECT_EQ(after.bytes_decoded, image.size());
  EXPECT_FALSE(after.finalized);
  ASSERT_EQ(session.feed(stream::Source::Jobs, jobs_image), stream::Admission::Accepted);
  const stream::SessionResult r = session.finalize();
  EXPECT_EQ(r.ras.size(), 256u);
  EXPECT_EQ(r.jobs.size(), 64u);
  EXPECT_TRUE(session.snapshot().finalized);
}

TEST(SessionLifecycle, EmptySessionPropagatesEngineEmptyInputError) {
  // Parity cuts both ways: the offline engine refuses an empty job log
  // (there is nothing to rank vulnerability over), so an empty session's
  // finalize surfaces the same error instead of inventing a result. The
  // message is about the input, not a precondition deep in the engine.
  stream::Session session("empty", {}, Context{});
  try {
    (void)session.finalize();
    ADD_FAILURE() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job log"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace coral
