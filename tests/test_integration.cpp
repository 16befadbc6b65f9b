// Cross-module integration: CSV round-trips feeding the analysis pipeline,
// and pipeline stability under serialization (the analysis of a re-parsed
// log pair must equal the analysis of the in-memory pair).
#include <gtest/gtest.h>

#include <sstream>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral {
namespace {

TEST(Integration, CsvRoundTripPreservesAnalysis) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(33, 14));

  std::stringstream ras_csv, job_csv;
  data.ras.write_csv(ras_csv);
  data.jobs.write_csv(job_csv);
  const ras::RasLog ras2 = ras::RasLog::read_csv(ras_csv);
  const joblog::JobLog jobs2 = joblog::JobLog::read_csv(job_csv);

  ASSERT_EQ(ras2.size(), data.ras.size());
  ASSERT_EQ(jobs2.size(), data.jobs.size());

  const core::CoAnalysisResult a = core::run_coanalysis(data.ras, data.jobs);
  const core::CoAnalysisResult b = core::run_coanalysis(ras2, jobs2);

  EXPECT_EQ(a.filtered.groups.size(), b.filtered.groups.size());
  EXPECT_EQ(a.matches.interruptions.size(), b.matches.interruptions.size());
  EXPECT_EQ(a.job_filter.removed_count(), b.job_filter.removed_count());
  EXPECT_EQ(a.system_interruptions, b.system_interruptions);
  EXPECT_EQ(a.application_interruptions, b.application_interruptions);
  EXPECT_EQ(a.classification.system_type_count(), b.classification.system_type_count());
  EXPECT_NEAR(a.fatal_before_jobfilter.weibull.shape(),
              b.fatal_before_jobfilter.weibull.shape(), 1e-6);
}

TEST(Integration, JobCsvPreservesIdentityTables) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(34, 7));
  std::stringstream csv;
  data.jobs.write_csv(csv);
  const joblog::JobLog parsed = joblog::JobLog::read_csv(csv);
  const auto s1 = data.jobs.summary();
  const auto s2 = parsed.summary();
  EXPECT_EQ(s1.total_jobs, s2.total_jobs);
  EXPECT_EQ(s1.distinct_jobs, s2.distinct_jobs);
  EXPECT_EQ(s1.resubmitted_jobs, s2.resubmitted_jobs);
  EXPECT_EQ(s1.users, s2.users);
  EXPECT_EQ(s1.projects, s2.projects);
}

TEST(Integration, RasCsvPreservesSummary) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(35, 7));
  std::stringstream csv;
  data.ras.write_csv(csv);
  const ras::RasLog parsed = ras::RasLog::read_csv(csv);
  const auto s1 = data.ras.summary();
  const auto s2 = parsed.summary();
  EXPECT_EQ(s1.total_records, s2.total_records);
  EXPECT_EQ(s1.fatal_records, s2.fatal_records);
  EXPECT_EQ(s1.fatal_errcode_types, s2.fatal_errcode_types);
  EXPECT_EQ(s1.by_severity, s2.by_severity);
}

TEST(Integration, AnalysisConfigKnobsPropagate) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(36, 14));
  core::CoAnalysisConfig strict;
  strict.matching.window = 10 * kUsecPerSec;
  core::CoAnalysisConfig loose;
  loose.matching.window = 600 * kUsecPerSec;
  const auto a = core::run_coanalysis(data.ras, data.jobs, strict);
  const auto b = core::run_coanalysis(data.ras, data.jobs, loose);
  // A wider matching window can only find more (or equal) interruptions.
  EXPECT_LE(a.matches.interruptions.size(), b.matches.interruptions.size());
}

TEST(Integration, EmptyishLogsDoNotCrash) {
  // A log pair with no FATAL records at all.
  ras::RasLog ras;
  {
    ras::RasEvent ev;
    ev.errcode = *ras::Catalog::instance().find("ecc_correctable");
    ev.severity = ras::Severity::Warning;
    ev.event_time = TimePoint::from_calendar(2009, 1, 6);
    ev.location = testing::bgp_loc("R00-M0-N00-J04");
    ras.append(ev);
    ras.finalize();
  }
  joblog::JobLog jobs;
  {
    joblog::JobRecord j;
    j.exec_id = jobs.intern_exec("app");
    j.user_id = jobs.intern_user("u");
    j.project_id = jobs.intern_project("p");
    j.queue_time = TimePoint::from_calendar(2009, 1, 6);
    j.start_time = j.queue_time + kUsecPerMin;
    j.end_time = j.start_time + kUsecPerHour;
    j.partition = testing::bgp_part("R00-M0");
    jobs.append(j);
    jobs.finalize();
  }
  const auto r = core::run_coanalysis(ras, jobs);
  EXPECT_TRUE(r.filtered.groups.empty());
  EXPECT_TRUE(r.matches.interruptions.empty());
  EXPECT_EQ(r.interruption_count(), 0u);
}

}  // namespace
}  // namespace coral
