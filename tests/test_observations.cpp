// End-to-end validation: run the full co-analysis on a medium-scale
// synthetic scenario and assert the *shape* of every paper observation.
// These are the reproduction's acceptance tests: absolute numbers differ
// from the paper (different substrate), but directions, orderings and
// rough magnitudes must hold.
#include <gtest/gtest.h>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral::core {
namespace {

struct Fixture {
  synth::SynthResult data;
  CoAnalysisResult r;
};

// 120 days at small-scenario density: large enough for stable statistics,
// ~1s to build.
const Fixture& fx() {
  static const Fixture f = [] {
    Fixture out;
    out.data = synth::generate(synth::small_scenario(41, 120));
    out.r = run_coanalysis(out.data.ras, out.data.jobs);
    return out;
  }();
  return f;
}

TEST(Observations, Obs1_SomeFatalCodesNeverImpactJobs) {
  const auto& r = fx().r;
  EXPECT_GE(r.identification.count(ErrcodeVerdict::NonFatalToJobs), 1);
  EXPECT_LE(r.identification.count(ErrcodeVerdict::NonFatalToJobs), 4);
  EXPECT_GT(r.identification.nonfatal_event_fraction, 0.05);
  EXPECT_LT(r.identification.nonfatal_event_fraction, 0.40);
}

TEST(Observations, Obs2_CauseSeparationFindsBothKinds) {
  const auto& r = fx().r;
  EXPECT_GE(r.classification.application_type_count(), 4);
  EXPECT_LE(r.classification.application_type_count(), 14);
  EXPECT_GT(r.classification.system_type_count(),
            r.classification.application_type_count() * 4);
  EXPECT_GT(r.classification.application_event_fraction, 0.04);
  EXPECT_LT(r.classification.application_event_fraction, 0.45);
}

TEST(Observations, Obs3_JobRelatedRedundancyIsNotNegligible) {
  const auto& r = fx().r;
  const double removed = static_cast<double>(r.job_filter.removed_count()) /
                         static_cast<double>(r.filtered.groups.size());
  EXPECT_GT(removed, 0.03);  // paper: 13.1%
  EXPECT_LT(removed, 0.40);
  EXPECT_GT(r.propagation.same_partition_fraction(), 0.35);  // paper: 57.4%
}

TEST(Observations, Obs4_WeibullFitsWithShapeBelowOne) {
  const auto& r = fx().r;
  EXPECT_TRUE(r.fatal_before_jobfilter.lrt.weibull_preferred);
  EXPECT_TRUE(r.fatal_after_jobfilter.lrt.weibull_preferred);
  EXPECT_LT(r.fatal_before_jobfilter.weibull.shape(), 1.0);
  EXPECT_LT(r.fatal_after_jobfilter.weibull.shape(), 1.0);
  // Removing job-related redundancy lengthens the fitted MTBF.
  EXPECT_GT(r.fatal_after_jobfilter.weibull.mean(),
            r.fatal_before_jobfilter.weibull.mean());
}

TEST(Observations, Obs5_FailuresFollowWideJobsNotWorkload) {
  const auto& r = fx().r;
  double fatal_region = 0, fatal_total = 0, work_region = 0, work_total = 0;
  for (int m = 0; m < machine::bgp_model().midplane_count(); ++m) {
    const auto i = static_cast<std::size_t>(m);
    fatal_total += r.fatal_events_per_midplane[i];
    work_total += r.workload_per_midplane[i];
    if (m >= 32 && m < 64) {
      fatal_region += r.fatal_events_per_midplane[i];
      work_region += r.workload_per_midplane[i];
    }
  }
  const double fatal_share = fatal_region / fatal_total;
  const double work_share = work_region / work_total;
  // The wide-job region is 40% of the machine: it must be over-represented
  // in failures relative to its workload share.
  EXPECT_GT(fatal_share, work_share);
  EXPECT_GT(fatal_share, 0.30);
}

TEST(Observations, Obs6_InterruptionsAreRareButBursty) {
  const auto& [data, r] = fx();
  const double rate = static_cast<double>(r.interruption_count()) /
                      static_cast<double>(data.jobs.size());
  EXPECT_LT(rate, 0.08);  // rare (paper: 0.45% of jobs)
  // Bursty: the busiest day holds several interruptions even though most
  // days have none.
  int max_day = 0, active = 0;
  for (int n : r.interruptions_per_day) {
    max_day = std::max(max_day, n);
    active += n > 0 ? 1 : 0;
  }
  EXPECT_GE(max_day, 3);
  EXPECT_LT(active, static_cast<int>(r.interruptions_per_day.size()));
}

TEST(Observations, Obs7_InterruptionRateBelowFailureRate) {
  const auto& r = fx().r;
  EXPECT_GT(r.interruptions_system.weibull.mean(),
            1.2 * r.fatal_before_jobfilter.weibull.mean());
  EXPECT_GT(r.identification.idle_event_fraction, 0.25);  // paper: 45.45%
  EXPECT_LT(r.identification.idle_event_fraction, 0.70);
}

TEST(Observations, Obs8_SpatialPropagationRareAndFsBound) {
  const auto& r = fx().r;
  EXPECT_LT(r.propagation.propagating_event_fraction, 0.15);  // paper: 7.22%
  const ras::Catalog& cat = ras::Catalog::instance();
  std::size_t fs = 0;
  for (auto code : r.propagation.propagating_codes) {
    fs += cat.info(code).propagates ? 1 : 0;
  }
  if (!r.propagation.propagating_codes.empty()) {
    EXPECT_GE(2 * fs, r.propagation.propagating_codes.size());
  }
}

TEST(Observations, Obs9_HistoryPredictsVulnerability) {
  const auto& r = fx().r;
  const auto& sys = r.vulnerability.resubmission[0];
  // Conditional failure probability after one failure is far above the
  // base rate (paper: tens of percent vs <1%).
  ASSERT_GT(sys.by_k[0].resubmissions, 10u);
  EXPECT_GT(sys.by_k[0].probability(), 0.05);
  // And it grows (or at least does not collapse) with more history.
  if (sys.by_k[1].resubmissions >= 5) {
    EXPECT_GT(sys.by_k[1].probability(), sys.by_k[0].probability() * 0.8);
  }
}

TEST(Observations, Obs10_SizeBeatsExecutionTime) {
  const auto& r = fx().r;
  const auto& ranked = r.vulnerability.features[0].ranked;
  std::size_t size_pos = 99, time_pos = 99;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].name == "size") size_pos = i;
    if (ranked[i].name == "execution time") time_pos = i;
  }
  EXPECT_LT(size_pos, time_pos);
  EXPECT_LE(size_pos, 2u);  // size is a top feature

  // Table VI shape: wide rows fail proportionally more than narrow rows.
  const auto& grid = r.vulnerability.grid;
  EXPECT_GT(grid.row_sums[5].proportion() + grid.row_sums[7].proportion(),
            2.0 * grid.row_sums[0].proportion());
}

TEST(Observations, Obs11_ApplicationErrorsStrikeEarly) {
  const auto& r = fx().r;
  if (r.application_interruptions < 20) GTEST_SKIP();
  EXPECT_GT(r.vulnerability.app_interruptions_within_hour, 0.50);  // paper: 74.5%
  // The paper found zero; tolerate a small classifier-noise share (system
  // codes mislabeled application whose victims were wide long jobs).
  EXPECT_LE(static_cast<double>(r.vulnerability.app_interruptions_wide_long),
            0.05 * static_cast<double>(r.application_interruptions));
}

TEST(Observations, Obs12_SuspiciousUsersCoverMuchButFailLittle) {
  const auto& [data, r] = fx();
  const auto& f = r.vulnerability.features[0];
  EXPECT_GT(f.suspicious_user_coverage, 0.3);  // paper: 53.25% for 16 users
  // Even the most suspicious users fail on a small share of their jobs.
  std::map<int, std::size_t> jobs_per_user, fails_per_user;
  for (std::size_t j = 0; j < data.jobs.size(); ++j) {
    jobs_per_user[data.jobs[j].user_id] += 1;
    if (r.matches.group_by_job[j] >= 0) fails_per_user[data.jobs[j].user_id] += 1;
  }
  for (int u : f.suspicious_users) {
    if (jobs_per_user[u] < 50) continue;
    const double frac = static_cast<double>(fails_per_user[u]) /
                        static_cast<double>(jobs_per_user[u]);
    EXPECT_LT(frac, 0.35) << "user " << u;
  }
}

TEST(Observations, FilterCompressionNearPaperRatio) {
  const auto& r = fx().r;
  EXPECT_GT(r.filtered.total_compression(), 0.93);  // paper: 98.35%
}

}  // namespace
}  // namespace coral::core
