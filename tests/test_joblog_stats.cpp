#include <gtest/gtest.h>

#include "coral/common/error.hpp"
#include "coral/joblog/stats.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral::joblog {
namespace {

JobLog two_job_log() {
  JobLog log;
  const TimePoint t0 = TimePoint::from_calendar(2009, 4, 1);
  JobRecord a;
  a.job_id = 1;
  a.exec_id = log.intern_exec("a");
  a.user_id = log.intern_user("u1");
  a.project_id = log.intern_project("p1");
  a.queue_time = t0 - 100 * kUsecPerSec;
  a.start_time = t0;
  a.end_time = a.start_time + kUsecPerHour;
  a.partition = testing::bgp_part("R00-M0");
  log.append(a);
  JobRecord b = a;
  b.job_id = 2;
  b.exec_id = log.intern_exec("b");
  b.user_id = log.intern_user("u2");
  b.queue_time = t0 - 300 * kUsecPerSec;
  b.start_time = t0;
  b.end_time = b.start_time + 2 * kUsecPerHour;
  b.partition = testing::bgp_part("R16-R31");  // 32 midplanes
  log.append(b);
  log.finalize();
  return log;
}

TEST(WorkloadStats, PerMidplaneAccounting) {
  const JobLog log = two_job_log();
  const WorkloadStats s = workload_stats(log);
  EXPECT_DOUBLE_EQ(s.midplane_busy_sec[0], 3600.0);
  EXPECT_DOUBLE_EQ(s.midplane_busy_sec[1], 0.0);
  EXPECT_DOUBLE_EQ(s.midplane_busy_sec[32], 7200.0);  // R16-M0 is midplane 32
  EXPECT_DOUBLE_EQ(s.midplane_busy_sec[63], 7200.0);  // R31-M1 is midplane 63
  EXPECT_EQ(s.jobs_per_size[0], 1u);
  EXPECT_EQ(s.jobs_per_size[5], 1u);
}

TEST(WorkloadStats, WideJobSeparatedOut) {
  const JobLog log = two_job_log();
  const WorkloadStats s = workload_stats(log);
  double wide_total = 0, busy_total = 0;
  for (std::size_t m = 0; m < s.midplane_wide_sec.size(); ++m) {
    wide_total += s.midplane_wide_sec[m];
    busy_total += s.midplane_busy_sec[m];
  }
  EXPECT_DOUBLE_EQ(wide_total, 32 * 7200.0);
  EXPECT_DOUBLE_EQ(busy_total, 3600.0 + 32 * 7200.0);
}

TEST(WorkloadStats, UtilizationAndWait) {
  const JobLog log = two_job_log();
  const WorkloadStats s = workload_stats(log);
  // Wall clock spans from the common start to job-b end.
  const double wall = 2 * 3600.0;
  EXPECT_NEAR(s.utilization, (3600.0 + 32 * 7200.0) / (wall * 80), 1e-9);
  EXPECT_NEAR(s.mean_wait_sec, (100.0 + 300.0) / 2, 1e-9);
}

TEST(WorkloadStats, EmptyLogIsZero) {
  const WorkloadStats s = workload_stats(JobLog{});
  EXPECT_DOUBLE_EQ(s.utilization, 0.0);
  EXPECT_EQ(s.jobs_per_size[0], 0u);
}

TEST(PartyStats, AggregatesByUserAndProject) {
  const JobLog log = two_job_log();
  const auto by_user = stats_by_user(log);
  ASSERT_EQ(by_user.size(), 2u);
  EXPECT_EQ(by_user.at(0).jobs, 1u);
  EXPECT_DOUBLE_EQ(by_user.at(0).node_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(by_user.at(1).node_seconds, 32 * 7200.0);
  const auto by_project = stats_by_project(log);
  ASSERT_EQ(by_project.size(), 1u);
  EXPECT_EQ(by_project.at(0).jobs, 2u);
}

TEST(UtilizationTimeline, StepFunctionShape) {
  const JobLog log = two_job_log();
  const TimePoint t0 = TimePoint::from_calendar(2009, 4, 1);
  const auto timeline =
      utilization_timeline(log, t0, t0 + 4 * kUsecPerHour, 30 * kUsecPerMin);
  ASSERT_EQ(timeline.size(), 8u);
  // First hour: both jobs running -> 33/80 midplanes.
  EXPECT_NEAR(timeline[0], 33.0 / 80.0, 1e-9);
  EXPECT_NEAR(timeline[1], 33.0 / 80.0, 1e-9);
  // Second hour: only the wide job remains.
  EXPECT_NEAR(timeline[2], 32.0 / 80.0, 1e-9);
  EXPECT_NEAR(timeline[3], 32.0 / 80.0, 1e-9);
  // Afterwards: idle.
  EXPECT_NEAR(timeline[4], 0.0, 1e-9);
  EXPECT_NEAR(timeline[6], 0.0, 1e-9);
  EXPECT_THROW(utilization_timeline(log, t0, t0, kUsecPerHour), InvalidArgument);
}

TEST(UtilizationTimeline, MatchesSyntheticScenario) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(81, 7));
  const synth::ScenarioConfig config = synth::small_scenario(81, 7);
  const auto timeline =
      utilization_timeline(data.jobs, config.start, config.end(), kUsecPerHour);
  EXPECT_EQ(timeline.size(), 7u * 24u);
  for (double u : timeline) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  const WorkloadStats s = workload_stats(data.jobs);
  EXPECT_GT(s.utilization, 0.05);
  EXPECT_LT(s.utilization, 0.95);
}

}  // namespace
}  // namespace coral::joblog
