#include <gtest/gtest.h>

#include <sstream>

#include "coral/common/error.hpp"
#include "coral/joblog/log.hpp"

#include "bgp_fixture.hpp"

namespace coral::joblog {
namespace {

JobRecord make_job(JobLog& log, std::int64_t id, const char* exec, const char* user,
                   const char* project, double start_s, double end_s, const char* part) {
  JobRecord j;
  j.job_id = id;
  j.exec_id = log.intern_exec(exec);
  j.user_id = log.intern_user(user);
  j.project_id = log.intern_project(project);
  j.queue_time = TimePoint::from_unix_seconds(start_s - 100);
  j.start_time = TimePoint::from_unix_seconds(start_s);
  j.end_time = TimePoint::from_unix_seconds(end_s);
  j.partition = testing::bgp_part(part);
  return j;
}

TEST(JobLog, InternDeduplicates) {
  JobLog log;
  const ExecId a = log.intern_exec("/home/u/app1");
  const ExecId b = log.intern_exec("/home/u/app2");
  const ExecId a2 = log.intern_exec("/home/u/app1");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(log.exec_files().size(), 2u);
}

TEST(JobLog, SummaryCountsDistinctAndResubmitted) {
  JobLog log;
  log.append(make_job(log, 1, "appA", "u1", "p1", 1000, 2000, "R00-M0"));
  log.append(make_job(log, 2, "appA", "u1", "p1", 3000, 4000, "R00-M0"));
  log.append(make_job(log, 3, "appB", "u2", "p1", 1000, 5000, "R01"));
  log.finalize();
  const JobLogSummary s = log.summary();
  EXPECT_EQ(s.total_jobs, 3u);
  EXPECT_EQ(s.distinct_jobs, 2u);
  EXPECT_EQ(s.resubmitted_jobs, 1u);
  EXPECT_EQ(s.users, 2u);
  EXPECT_EQ(s.projects, 1u);
}

TEST(JobLog, ByEndTimeOrdersTerminationsWithIndexTieBreak) {
  JobLog log;
  log.append(make_job(log, 1, "appA", "u1", "p1", 1000, 5000, "R00-M0"));
  log.append(make_job(log, 2, "appB", "u1", "p1", 2000, 3000, "R00-M0"));
  log.append(make_job(log, 3, "appC", "u1", "p1", 2500, 3000, "R01"));  // end tie with job 2
  log.finalize();

  // Jobs are start-sorted, so indices 0..2 are ids 1..3; terminations come
  // end-sorted with ties broken by index.
  const std::vector<std::size_t>& by_end = log.by_end_time();
  ASSERT_EQ(by_end.size(), 3u);
  EXPECT_EQ(log[by_end[0]].job_id, 2);
  EXPECT_EQ(log[by_end[1]].job_id, 3);
  EXPECT_EQ(log[by_end[2]].job_id, 1);
  for (std::size_t i = 1; i < by_end.size(); ++i) {
    EXPECT_LE(log[by_end[i - 1]].end_time, log[by_end[i]].end_time);
  }
}

TEST(JobLog, OutOfOrderAppendsSortStablyByStart) {
  // Appends out of start order take the stable sort: equal start times keep
  // their append order.
  JobLog log;
  log.append(make_job(log, 1, "appA", "u1", "p1", 3000, 4000, "R00-M0"));
  log.append(make_job(log, 2, "appB", "u1", "p1", 1000, 6000, "R00-M1"));
  log.append(make_job(log, 3, "appC", "u1", "p1", 3000, 3500, "R01"));
  log.append(make_job(log, 4, "appD", "u1", "p1", 1000, 2000, "R02"));
  log.append(make_job(log, 5, "appE", "u1", "p1", 2000, 4000, "R03"));
  log.finalize();
  std::vector<std::int64_t> ids;
  for (const JobRecord& j : log) ids.push_back(j.job_id);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{2, 4, 5, 1, 3}));
  const std::vector<std::size_t>& by_end = log.by_end_time();
  std::vector<std::int64_t> ends;
  for (const std::size_t i : by_end) ends.push_back(log[i].job_id);
  EXPECT_EQ(ends, (std::vector<std::int64_t>{4, 3, 5, 1, 2}));
  EXPECT_EQ(log.columns().start[0], log[0].start_time);
}

TEST(JobLog, StartOrderedLogKeepsItsOrder) {
  // A log appended in start order (as every decoded log is) skips the
  // sort; ties keep append order and the end index is the same.
  JobLog log;
  log.append(make_job(log, 9, "appA", "u1", "p1", 1000, 5000, "R00-M0"));
  log.append(make_job(log, 3, "appB", "u1", "p1", 1000, 3000, "R00-M1"));
  log.append(make_job(log, 7, "appC", "u1", "p1", 2000, 3000, "R01"));
  log.append(make_job(log, 1, "appD", "u1", "p1", 2500, 2600, "R02"));
  log.finalize();
  std::vector<std::int64_t> ids;
  for (const JobRecord& j : log) ids.push_back(j.job_id);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{9, 3, 7, 1}));
  EXPECT_EQ(log.by_end_time(), (std::vector<std::size_t>{3, 1, 2, 0}));
  log.finalize();  // idempotent on a finalized log
  ids.clear();
  for (const JobRecord& j : log) ids.push_back(j.job_id);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{9, 3, 7, 1}));
  EXPECT_EQ(log.by_end_time(), (std::vector<std::size_t>{3, 1, 2, 0}));
}

TEST(JobLog, RunningAtLocationMatching) {
  JobLog log;
  log.append(make_job(log, 1, "appA", "u1", "p1", 1000, 2000, "R00-M0"));
  log.append(make_job(log, 2, "appB", "u1", "p1", 1500, 3000, "R01"));
  log.append(make_job(log, 3, "appC", "u1", "p1", 2500, 4000, "R00-M0"));
  log.finalize();

  const auto at_1600_r00m0 =
      log.running_at(TimePoint::from_unix_seconds(1600), testing::bgp_loc("R00-M0-N03"));
  ASSERT_EQ(at_1600_r00m0.size(), 1u);
  EXPECT_EQ(log[at_1600_r00m0[0]].job_id, 1);

  const auto at_1600_r01 =
      log.running_at(TimePoint::from_unix_seconds(1600), testing::bgp_loc("R01-M1"));
  ASSERT_EQ(at_1600_r01.size(), 1u);
  EXPECT_EQ(log[at_1600_r01[0]].job_id, 2);

  // End time is exclusive: at t=2000 job 1 has exited.
  const auto at_2000 =
      log.running_at(TimePoint::from_unix_seconds(2000), testing::bgp_loc("R00-M0"));
  EXPECT_TRUE(at_2000.empty());

  // No job covers R05.
  EXPECT_TRUE(
      log.running_at(TimePoint::from_unix_seconds(1600), testing::bgp_loc("R05-M0"))
          .empty());
}

TEST(JobLog, RunningAtPartitionOverlap) {
  JobLog log;
  log.append(make_job(log, 1, "appA", "u1", "p1", 1000, 2000, "R00-R01"));
  log.finalize();
  EXPECT_EQ(
      log.running_at(TimePoint::from_unix_seconds(1500), testing::bgp_part("R01")).size(),
      1u);
  EXPECT_TRUE(
      log.running_at(TimePoint::from_unix_seconds(1500), testing::bgp_part("R02"))
          .empty());
}

TEST(JobLog, CsvRoundTrip) {
  JobLog log;
  log.append(make_job(log, 8935, "/gpfs/apps/flash,2", "alice", "astro", 1209618043.1,
                      1209621636.96, "R10-R11"));
  log.append(make_job(log, 8936, "/gpfs/apps/qmc", "bob", "chem", 1209620000, 1209630000,
                      "R00-M0"));
  log.finalize();

  std::ostringstream out;
  log.write_csv(out);
  std::istringstream in(out.str());
  const JobLog parsed = JobLog::read_csv(in);

  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].job_id, 8935);
  EXPECT_EQ(parsed.exec_files()[static_cast<std::size_t>(parsed[0].exec_id)],
            "/gpfs/apps/flash,2");
  EXPECT_EQ(machine::bgp_model().partition_name(parsed[0].partition), "R10-R11");
  EXPECT_NEAR(parsed[0].start_time.unix_seconds(), 1209618043.1, 0.01);
  EXPECT_EQ(parsed[1].size_midplanes(), 1);
}

TEST(JobLog, AppendValidatesTimes) {
  JobLog log;
  JobRecord j = make_job(log, 1, "a", "u", "p", 2000, 1000, "R00-M0");
  EXPECT_THROW(log.append(j), InvalidArgument);
}

TEST(JobRecord, DerivedAccessors) {
  JobLog log;
  const JobRecord j = make_job(log, 1, "a", "u", "p", 1000, 4600, "R08-R11");
  EXPECT_EQ(j.runtime(), 3600 * kUsecPerSec);
  EXPECT_EQ(j.size_midplanes(), 8);
  EXPECT_TRUE(j.running_at(TimePoint::from_unix_seconds(1000)));
  EXPECT_TRUE(j.running_at(TimePoint::from_unix_seconds(4599)));
  EXPECT_FALSE(j.running_at(TimePoint::from_unix_seconds(4600)));
  EXPECT_FALSE(j.running_at(TimePoint::from_unix_seconds(999)));
}

}  // namespace
}  // namespace coral::joblog
