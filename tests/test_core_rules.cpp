// Deterministic rule tests for the co-analysis core: hand-built log pairs
// exercising matching (§IV), identification (§IV-A), classification (§IV-B)
// and job-related filtering (§IV-C).
#include <gtest/gtest.h>

#include "coral/core/pipeline.hpp"

#include "bgp_fixture.hpp"

namespace coral::core {
namespace {

using filter::FilterPipelineResult;
using ras::Catalog;

const TimePoint kT0 = TimePoint::from_calendar(2009, 3, 1);

TimePoint at_hours(double h) { return kT0 + static_cast<Usec>(h * kUsecPerHour); }

/// Tiny scenario builder: accumulates jobs and fatal records, then runs any
/// subset of the pipeline.
struct Scenario {
  joblog::JobLog jobs;
  ras::RasLog ras;

  std::int64_t next_id = 1;

  std::int64_t job(const char* exec, double start_h, double end_h, const char* part,
                   const char* user = "u1") {
    joblog::JobRecord j;
    j.job_id = next_id++;
    j.exec_id = jobs.intern_exec(exec);
    j.user_id = jobs.intern_user(user);
    j.project_id = jobs.intern_project("p1");
    j.queue_time = at_hours(start_h - 0.05);
    j.start_time = at_hours(start_h);
    j.end_time = at_hours(end_h);
    j.partition = testing::bgp_part(part);
    jobs.append(j);
    return j.job_id;
  }

  void fatal(const char* code, double t_h, const char* where) {
    ras::RasEvent ev;
    ev.errcode = *Catalog::instance().find(code);
    ev.severity = ras::Severity::Fatal;
    ev.event_time = at_hours(t_h);
    ev.location = testing::bgp_loc(where);
    ras.append(ev);
  }

  CoAnalysisResult run(CoAnalysisConfig config = {}) {
    jobs.finalize();
    ras.finalize();
    return run_coanalysis(ras, jobs, config);
  }
};

TEST(Matching, MatchesJobEndingAtEventOnCoveredLocation) {
  Scenario s;
  const auto id = s.job("app", 0.0, 2.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.0, "R00-M0-N03-J08");
  const auto r = s.run();
  ASSERT_EQ(r.matches.interruptions.size(), 1u);
  EXPECT_EQ(s.jobs[r.matches.interruptions[0].job].job_id, id);
}

TEST(Matching, IgnoresEventsOutsideWindow) {
  Scenario s;
  s.job("app", 0.0, 2.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.5, "R00-M0-N03-J08");  // 30 min after end
  const auto r = s.run();
  EXPECT_TRUE(r.matches.interruptions.empty());
}

TEST(Matching, IgnoresEventsAtOtherLocations) {
  Scenario s;
  s.job("app", 0.0, 2.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.0, "R05-M1-N03-J08");
  const auto r = s.run();
  EXPECT_TRUE(r.matches.interruptions.empty());
}

TEST(Matching, RackLevelEventMatchesJobOnEitherMidplane) {
  Scenario s;
  s.job("app", 0.0, 2.0, "R00-M1");
  s.fatal("mc_palomino_fatal_00", 2.0, "R00");  // rack-level location
  const auto r = s.run();
  EXPECT_EQ(r.matches.interruptions.size(), 1u);
}

TEST(Matching, OneEventCanInterruptMultipleJobs) {
  Scenario s;
  s.job("app1", 0.0, 2.0, "R00-M0");
  s.job("app2", 0.5, 2.001, "R10-M0");
  // Two records of the same propagating code within the spatial window form
  // one group with members at both locations.
  s.fatal(ras::codes::kCiodHungProxy, 2.0, "R00-M0-N01-I00");
  s.fatal(ras::codes::kCiodHungProxy, 2.001, "R10-M0-N01-I00");
  const auto r = s.run();
  ASSERT_EQ(r.filtered.groups.size(), 1u);
  EXPECT_EQ(r.matches.jobs_by_group[0].size(), 2u);
  EXPECT_EQ(r.matches.interruptions.size(), 2u);
}

TEST(Matching, JobMatchedToAtMostOneGroup) {
  Scenario s;
  s.job("app", 0.0, 2.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.0, "R00-M0-N03-J08");
  s.fatal(ras::codes::kDdrController, 2.0, "R00-M0-N04");
  const auto r = s.run();
  ASSERT_EQ(r.filtered.groups.size(), 2u);
  EXPECT_EQ(r.matches.interruptions.size(), 1u);  // one job, one interruption
}

TEST(Identification, CasesClassifiedPerEvent) {
  Scenario s;
  s.job("killed", 0.0, 2.0, "R00-M0");
  s.job("survivor", 3.0, 8.0, "R01-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.0, "R00-M0-N03-J08");   // case 1
  s.fatal(ras::codes::kBulkPowerFatal, 5.0, "R01");             // case 3
  s.fatal("diags_lattice_fail_00", 5.0, "R30-M0-N02");          // case 2
  const auto r = s.run();
  ASSERT_EQ(r.identification.event_cases.size(), 3u);
  EXPECT_EQ(r.identification.event_cases[0], EventCase::InterruptsJob);
  EXPECT_EQ(r.identification.event_cases[1], EventCase::JobSurvives);
  EXPECT_EQ(r.identification.event_cases[2], EventCase::NoJobAtLocation);
}

TEST(Identification, VerdictRules) {
  Scenario s;
  // Code A: case 1 + case 2 -> interruption-related.
  s.job("k1", 0.0, 2.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.0, "R00-M0-N03-J08");
  s.fatal(ras::codes::kRasStormFatal, 50.0, "R30-M0-N03-J08");  // idle location
  // Code B: case 3 only -> non-fatal to jobs.
  s.job("s1", 10.0, 14.0, "R01-M0");
  s.fatal(ras::codes::kTorusFatalSum, 12.0, "R01-M0-N00-J04");
  // Code C: case 2 only -> undetermined.
  s.fatal("diags_lattice_fail_01", 60.0, "R31-M0-N02");
  const auto r = s.run();
  EXPECT_EQ(r.identification.verdicts.at(*Catalog::instance().find(ras::codes::kRasStormFatal)),
            ErrcodeVerdict::InterruptionRelated);
  EXPECT_EQ(r.identification.verdicts.at(*Catalog::instance().find(ras::codes::kTorusFatalSum)),
            ErrcodeVerdict::NonFatalToJobs);
  EXPECT_EQ(r.identification.verdicts.at(*Catalog::instance().find("diags_lattice_fail_01")),
            ErrcodeVerdict::Undetermined);
}

TEST(Identification, ConflictingCasesAreUndetermined) {
  Scenario s;
  // Same code interrupts one job and spares another: both case 1 and case 3.
  s.job("k1", 0.0, 2.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 2.0, "R00-M0-N03-J08");
  s.job("s1", 10.0, 14.0, "R01-M0");
  s.fatal(ras::codes::kRasStormFatal, 12.0, "R01-M0-N00-J04");
  const auto r = s.run();
  EXPECT_EQ(r.identification.verdicts.at(*Catalog::instance().find(ras::codes::kRasStormFatal)),
            ErrcodeVerdict::Undetermined);
}

TEST(Classification, NeverWithJobIsSystem) {
  Scenario s;
  s.fatal("diags_lattice_fail_02", 5.0, "R30-M0-N02");
  s.job("unrelated", 0.0, 1.0, "R00-M0");
  const auto r = s.run();
  const auto& cc =
      r.classification.by_code.at(*Catalog::instance().find("diags_lattice_fail_02"));
  EXPECT_EQ(cc.cause, Cause::SystemFailure);
  EXPECT_EQ(cc.rule, CauseRule::NeverWithJob);
}

TEST(Classification, RepeatSameLocationIsSystem) {
  Scenario s;
  // Two different executables killed at the same fault location.
  s.job("alpha", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 1.0, "R00-M0-N04");
  s.job("beta", 2.0, 3.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 3.0, "R00-M0-N04");
  const auto r = s.run();
  const auto& cc =
      r.classification.by_code.at(*Catalog::instance().find(ras::codes::kDdrController));
  EXPECT_EQ(cc.cause, Cause::SystemFailure);
  EXPECT_EQ(cc.rule, CauseRule::RepeatSameLocation);
}

TEST(Classification, FollowsResubmissionIsApplication) {
  Scenario s;
  CoAnalysisConfig config;
  config.classification.min_follow_evidence = 1;
  // The Fig. 2 pattern.
  s.job("buggy", 0.0, 1.0, "R00-M0");
  s.fatal("_bgp_err_out_of_memory", 1.0, "R00-M0-N03-J08");
  s.job("innocent", 1.5, 4.0, "R00-M0");  // survives on the old nodes
  s.job("buggy", 2.0, 3.0, "R01-M0");     // resubmitted elsewhere, dies again
  s.fatal("_bgp_err_out_of_memory", 3.0, "R01-M0-N05-J11");
  const auto r = s.run(config);
  const auto& cc =
      r.classification.by_code.at(*Catalog::instance().find("_bgp_err_out_of_memory"));
  EXPECT_EQ(cc.cause, Cause::ApplicationError);
  EXPECT_EQ(cc.rule, CauseRule::FollowsResubmission);
}

TEST(Classification, NoSurvivorMeansNotFollowsResubmission) {
  Scenario s;
  CoAnalysisConfig config;
  config.classification.min_follow_evidence = 1;
  // Same exec dies twice at different locations but nothing ever ran on the
  // first partition again -> cannot rule out bad nodes; falls to fallback.
  s.job("buggy", 0.0, 1.0, "R00-M0");
  s.fatal("_bgp_err_out_of_memory", 1.0, "R00-M0-N03-J08");
  s.job("buggy", 2.0, 3.0, "R01-M0");
  s.fatal("_bgp_err_out_of_memory", 3.0, "R01-M0-N05-J11");
  const auto r = s.run(config);
  const auto& cc =
      r.classification.by_code.at(*Catalog::instance().find("_bgp_err_out_of_memory"));
  EXPECT_NE(cc.rule, CauseRule::FollowsResubmission);
}

TEST(Classification, ResubmissionGapTooLargeIsNotFollowing) {
  Scenario s;
  CoAnalysisConfig config;
  config.classification.min_follow_evidence = 1;
  s.job("buggy", 0.0, 1.0, "R00-M0");
  s.fatal("_bgp_err_out_of_memory", 1.0, "R00-M0-N03-J08");
  s.job("innocent", 1.5, 4.0, "R00-M0");
  s.job("buggy", 200.0, 201.0, "R01-M0");  // > follow_gap (3 days) later
  s.fatal("_bgp_err_out_of_memory", 201.0, "R01-M0-N05-J11");
  const auto r = s.run(config);
  const auto& cc =
      r.classification.by_code.at(*Catalog::instance().find("_bgp_err_out_of_memory"));
  EXPECT_NE(cc.rule, CauseRule::FollowsResubmission);
}

TEST(JobFilter, RemovesSystemRedundancyAtSameLocation) {
  Scenario s;
  // Persistent fault at one location kills three different jobs in a row;
  // nothing healthy runs there in between.
  s.job("a", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 1.0, "R00-M0-N04");
  s.job("b", 2.0, 2.5, "R00-M0");
  s.fatal(ras::codes::kDdrController, 2.5, "R00-M0-N04");
  s.job("c", 3.0, 3.5, "R00-M0");
  s.fatal(ras::codes::kDdrController, 3.5, "R00-M0-N04");
  const auto r = s.run();
  ASSERT_EQ(r.filtered.groups.size(), 3u);
  EXPECT_EQ(r.job_filter.removed_count(), 2u);  // 2nd and 3rd are redundant
  EXPECT_EQ(r.job_filter.kept.size(), 1u);
  // Transitivity: both point back to the first group (directly or via it).
  for (const auto& [removed, anchor] : r.job_filter.redundant_to) {
    EXPECT_EQ(anchor, 0u);
    (void)removed;
  }
}

TEST(JobFilter, SurvivorInBetweenBreaksRedundancy) {
  Scenario s;
  s.job("a", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 1.0, "R00-M0-N04");
  s.job("healthy", 2.0, 3.0, "R00-M0");  // completes fine on the same nodes
  s.job("b", 4.0, 4.5, "R00-M0");
  s.fatal(ras::codes::kDdrController, 4.5, "R00-M0-N04");
  const auto r = s.run();
  EXPECT_EQ(r.job_filter.removed_count(), 0u);  // repaired in between
}

TEST(JobFilter, AppErrorRedundancyFollowsExecFile) {
  Scenario s;
  CoAnalysisConfig config;
  config.classification.min_follow_evidence = 1;
  // Buggy exec killed at two different locations; a survivor ran on the
  // first partition (so the code is classified application), and the second
  // kill of the same exec is job-related redundancy.
  s.job("buggy", 0.0, 1.0, "R00-M0");
  s.fatal("_bgp_err_out_of_memory", 1.0, "R00-M0-N03-J08");
  s.job("innocent", 1.5, 4.0, "R00-M0");
  s.job("buggy", 2.0, 3.0, "R01-M0");
  s.fatal("_bgp_err_out_of_memory", 3.0, "R01-M0-N05-J11");
  const auto r = s.run(config);
  EXPECT_EQ(r.job_filter.removed_count(), 1u);
}

TEST(JobFilter, DifferentLocationsSystemNotRedundant) {
  Scenario s;
  s.job("a", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 1.0, "R00-M0-N04");
  s.job("b", 2.0, 2.5, "R20-M1");
  s.fatal(ras::codes::kDdrController, 2.5, "R20-M1-N09");
  const auto r = s.run();
  EXPECT_EQ(r.job_filter.removed_count(), 0u);  // two independent faults
}

TEST(JobFilter, HorizonLimitsChains) {
  Scenario s;
  CoAnalysisConfig config;
  config.job_filter.horizon = 1 * kUsecPerDay;
  s.job("a", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 1.0, "R00-M0-N04");
  s.job("b", 100.0, 100.5, "R00-M0");  // 4 days later
  s.fatal(ras::codes::kDdrController, 100.5, "R00-M0-N04");
  const auto r = s.run(config);
  EXPECT_EQ(r.job_filter.removed_count(), 0u);
}

TEST(Propagation, DisjointVictimsCountAsSpatialPropagation) {
  Scenario s;
  s.job("app1", 0.0, 2.0, "R00-M0");
  s.job("app2", 0.5, 2.001, "R10-M0");
  s.fatal(ras::codes::kScriptError, 2.0, "R00-M0-N01-I00");
  s.fatal(ras::codes::kScriptError, 2.001, "R10-M0-N01-I00");
  const auto r = s.run();
  ASSERT_EQ(r.propagation.propagating_groups.size(), 1u);
  EXPECT_EQ(r.propagation.propagating_codes.size(), 1u);
  EXPECT_TRUE(r.propagation.propagating_codes.count(
      *Catalog::instance().find(ras::codes::kScriptError)));
}

TEST(Propagation, SameLocationChainIsNotSpatial) {
  Scenario s;
  s.job("a", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kDdrController, 1.0, "R00-M0-N04");
  s.job("b", 2.0, 2.5, "R00-M0");
  s.fatal(ras::codes::kDdrController, 2.5, "R00-M0-N04");
  const auto r = s.run();
  EXPECT_TRUE(r.propagation.propagating_groups.empty());
}

TEST(Propagation, SamePartitionResubmissionsCounted) {
  Scenario s;
  s.job("app", 0.0, 1.0, "R00-M0");
  s.fatal(ras::codes::kRasStormFatal, 1.0, "R00-M0-N03-J08");
  s.job("app", 2.0, 5.0, "R00-M0");  // resubmitted to the same partition
  const auto r = s.run();
  EXPECT_EQ(r.propagation.resubmissions_after_interruption, 1u);
  EXPECT_EQ(r.propagation.resubmissions_same_partition, 1u);
  EXPECT_DOUBLE_EQ(r.propagation.same_partition_fraction(), 1.0);
}

}  // namespace
}  // namespace coral::core
