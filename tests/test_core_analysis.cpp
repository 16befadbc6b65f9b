// Statistical tests of the co-analysis core against the generator's ground
// truth, on scaled-down scenarios. Tolerances are wide by design: the
// analysis sees only the logs, never the truth.
#include <gtest/gtest.h>

#include <set>

#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"
#include "coral/core/report.hpp"
#include "coral/machine/model.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral::core {
namespace {

using ras::Catalog;
using ras::FaultNature;

struct Fixture {
  synth::SynthResult data;
  CoAnalysisResult result;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture out;
    out.data = synth::generate(synth::small_scenario(17, 60));
    out.result = run_coanalysis(out.data.ras, out.data.jobs);
    return out;
  }();
  return f;
}

TEST(Matching, RecallAndPrecisionAgainstTruth) {
  const auto& [data, result] = fixture();
  std::set<std::int64_t> truth_jobs;
  for (const auto& i : data.truth.interruptions) truth_jobs.insert(i.job_id);
  std::size_t hits = 0;
  for (const auto& in : result.matches.interruptions) {
    if (truth_jobs.count(data.jobs[in.job].job_id)) ++hits;
  }
  ASSERT_FALSE(truth_jobs.empty());
  const double recall = static_cast<double>(hits) / static_cast<double>(truth_jobs.size());
  const double precision =
      static_cast<double>(hits) / static_cast<double>(result.matches.interruptions.size());
  EXPECT_GT(recall, 0.90) << "matched " << hits << " of " << truth_jobs.size();
  EXPECT_GT(precision, 0.90);
}

TEST(Matching, InterruptionsSortedByTime) {
  const auto& r = fixture().result;
  for (std::size_t i = 1; i < r.matches.interruptions.size(); ++i) {
    EXPECT_LE(r.matches.interruptions[i - 1].time, r.matches.interruptions[i].time);
  }
}

TEST(Identification, BenignCodesRecovered) {
  const auto& r = fixture().result;
  // The two ground-truth benign codes must not be called
  // interruption-related.
  for (const char* name : {ras::codes::kBulkPowerFatal, ras::codes::kTorusFatalSum}) {
    const auto id = Catalog::instance().find(name);
    const auto it = r.identification.verdicts.find(*id);
    if (it == r.identification.verdicts.end()) continue;  // code never fired
    EXPECT_NE(it->second, ErrcodeVerdict::InterruptionRelated) << name;
  }
}

TEST(Identification, InterruptionRelatedCodesAreTrulyInterrupting) {
  const auto& r = fixture().result;
  const Catalog& cat = Catalog::instance();
  for (const auto& [code, verdict] : r.identification.verdicts) {
    if (verdict != ErrcodeVerdict::InterruptionRelated) continue;
    EXPECT_EQ(cat.info(code).impact, ras::JobImpact::Interrupting) << cat.info(code).name;
  }
}

TEST(Identification, UndeterminedCoversIdleBiasCodes) {
  const auto& r = fixture().result;
  const Catalog& cat = Catalog::instance();
  int idle_codes_seen = 0, idle_codes_undetermined = 0;
  for (const auto& [code, verdict] : r.identification.verdicts) {
    if (!cat.info(code).idle_bias) continue;
    ++idle_codes_seen;
    if (verdict == ErrcodeVerdict::Undetermined) ++idle_codes_undetermined;
  }
  ASSERT_GT(idle_codes_seen, 5);
  // Idle-biased codes never run under jobs, so the rule leaves almost all
  // of them undetermined (a few pick up coincidental matches: a job that
  // ended seconds before the fault still falls inside the match window).
  EXPECT_GE(static_cast<double>(idle_codes_undetermined),
            0.85 * static_cast<double>(idle_codes_seen));
}

TEST(Classification, AccuracyAgainstCatalogTruth) {
  const auto& r = fixture().result;
  const Catalog& cat = Catalog::instance();
  int correct = 0, total = 0;
  for (const auto& [code, cc] : r.classification.by_code) {
    const bool truth_app = cat.info(code).nature == FaultNature::ApplicationError;
    const bool got_app = cc.cause == Cause::ApplicationError;
    ++total;
    if (truth_app == got_app) ++correct;
  }
  ASSERT_GT(total, 40);
  EXPECT_GT(static_cast<double>(correct) / total, 0.85)
      << correct << " of " << total << " codes classified correctly";
}

TEST(Classification, NeverWithJobRuleOnlyFiresForSystemCodes) {
  const auto& r = fixture().result;
  const Catalog& cat = Catalog::instance();
  for (const auto& [code, cc] : r.classification.by_code) {
    if (cc.rule == CauseRule::NeverWithJob) {
      EXPECT_EQ(cat.info(code).nature, FaultNature::SystemFailure) << cat.info(code).name;
    }
  }
}

TEST(JobFilter, KeptPlusRemovedEqualsAll) {
  const auto& r = fixture().result;
  EXPECT_EQ(r.job_filter.kept.size() + r.job_filter.removed_count(),
            r.filtered.groups.size());
  // Removed groups reference kept (anchor) groups that precede them.
  for (const auto& [removed, anchor] : r.job_filter.redundant_to) {
    EXPECT_LT(anchor, removed);
  }
}

TEST(JobFilter, RemovesAShareOfRehits) {
  const auto& [data, result] = fixture();
  std::size_t truth_rehits = 0;
  for (const auto& f : data.truth.faults) truth_rehits += f.redundant_of >= 0 ? 1 : 0;
  if (truth_rehits < 5) GTEST_SKIP() << "not enough rehits in this scenario";
  // The job-related filter should find a majority of the re-manifestations.
  EXPECT_GT(static_cast<double>(result.job_filter.removed_count()),
            0.4 * static_cast<double>(truth_rehits));
}

TEST(Interarrival, SamplesAndFitsAreSane) {
  const auto& r = fixture().result;
  ASSERT_GE(r.fatal_before_jobfilter.samples_sec.size(), 10u);
  EXPECT_EQ(r.fatal_before_jobfilter.samples_sec.size() + 1, r.filtered.groups.size());
  EXPECT_GT(r.fatal_before_jobfilter.weibull.shape(), 0.0);
  EXPECT_LT(r.fatal_before_jobfilter.weibull.shape(), 1.1);  // clustered arrivals
  EXPECT_TRUE(r.fatal_before_jobfilter.lrt.weibull_preferred);
  // Job-filtering removes short-gap redundancy: shape must not decrease.
  EXPECT_GE(r.fatal_after_jobfilter.weibull.shape(),
            r.fatal_before_jobfilter.weibull.shape() - 0.05);
}

TEST(Interarrival, HelperFunctions) {
  const std::vector<TimePoint> times = {TimePoint(3 * kUsecPerSec), TimePoint(0),
                                        TimePoint(10 * kUsecPerSec)};
  const auto gaps = interarrival_seconds(times);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 3.0);
  EXPECT_DOUBLE_EQ(gaps[1], 7.0);
  EXPECT_THROW(interarrival_seconds(std::vector<TimePoint>{TimePoint(0)}), InvalidArgument);
}

TEST(Propagation, OnlySharedResourceCodesPropagate) {
  const auto& r = fixture().result;
  const Catalog& cat = Catalog::instance();
  std::size_t fs_codes = 0;
  for (ras::ErrcodeId code : r.propagation.propagating_codes) {
    if (cat.info(code).propagates) ++fs_codes;
  }
  // Most detected propagating codes are the true shared-FS codes (a stray
  // coincidence is tolerated).
  if (!r.propagation.propagating_codes.empty()) {
    EXPECT_GE(fs_codes * 2, r.propagation.propagating_codes.size());
  }
  EXPECT_LT(r.propagation.propagating_event_fraction, 0.2);  // rare (Obs. 8)
}

TEST(Propagation, SamePartitionFractionIsSubstantial) {
  const auto& r = fixture().result;
  ASSERT_GT(r.propagation.resubmissions_after_interruption, 10u);
  // The Intrepid scheduler model reuses the previous partition aggressively
  // (paper: 57.44%).
  EXPECT_GT(r.propagation.same_partition_fraction(), 0.35);
  EXPECT_LE(r.propagation.same_partition_fraction(), 1.0);
}

TEST(Vulnerability, GridTotalsAreConsistent) {
  const auto& [data, result] = fixture();
  const auto& grid = result.vulnerability.grid;
  std::size_t from_rows = 0, from_cols = 0;
  for (const auto& s : grid.row_sums) from_rows += s.total;
  for (const auto& s : grid.col_sums) from_cols += s.total;
  EXPECT_EQ(from_rows, grid.total.total);
  EXPECT_EQ(from_cols, grid.total.total);
  EXPECT_LE(grid.total.total, data.jobs.size());
  EXPECT_EQ(grid.total.interrupted, result.system_interruptions);
}

TEST(Vulnerability, WiderJobsAreMoreVulnerable) {
  const auto& r = fixture().result;
  const auto& grid = r.vulnerability.grid;
  // Compare narrow (1-2 midplanes) against wide (>= 16) aggregate rates.
  std::size_t narrow_i = grid.row_sums[0].interrupted + grid.row_sums[1].interrupted;
  std::size_t narrow_t = grid.row_sums[0].total + grid.row_sums[1].total;
  std::size_t wide_i = 0, wide_t = 0;
  for (int row = 4; row < 9; ++row) {
    wide_i += grid.row_sums[static_cast<std::size_t>(row)].interrupted;
    wide_t += grid.row_sums[static_cast<std::size_t>(row)].total;
  }
  ASSERT_GT(narrow_t, 0u);
  ASSERT_GT(wide_t, 0u);
  const double narrow_rate = static_cast<double>(narrow_i) / static_cast<double>(narrow_t);
  const double wide_rate = static_cast<double>(wide_i) / static_cast<double>(wide_t);
  EXPECT_GT(wide_rate, 2.0 * narrow_rate);  // Observation 10
}

TEST(Vulnerability, AppErrorsStrikeEarly) {
  const auto& r = fixture().result;
  if (r.application_interruptions < 20) GTEST_SKIP() << "too few app interruptions";
  EXPECT_GT(r.vulnerability.app_interruptions_within_hour, 0.5);  // Observation 11
  EXPECT_LE(r.vulnerability.app_interruptions_wide_long, 3u);
}

TEST(Vulnerability, ResubmissionStatsPopulated) {
  const auto& r = fixture().result;
  const auto& sys = r.vulnerability.resubmission[0];
  EXPECT_GT(sys.by_k[0].resubmissions, 0u);
  for (const auto& p : sys.by_k) {
    EXPECT_LE(p.interrupted, p.resubmissions);
  }
  EXPECT_GT(sys.uncovered_at_k2, 0.5);  // most interruptions lack k>=2 history
  EXPECT_LE(sys.uncovered_at_k2, 1.0);
}

TEST(Vulnerability, FeatureRankingContainsAllFiveFeatures) {
  const auto& r = fixture().result;
  for (int cat = 0; cat < 2; ++cat) {
    const auto& ranked = r.vulnerability.features[cat].ranked;
    ASSERT_EQ(ranked.size(), 5u);
    std::set<std::string> names;
    for (const auto& g : ranked) {
      names.insert(g.name);
      EXPECT_GE(g.info_gain, -1e-12);
    }
    EXPECT_EQ(names.size(), 5u);
  }
  // Size must outrank execution time for system interruptions (Obs. 10).
  const auto& sys = r.vulnerability.features[0].ranked;
  std::size_t size_pos = 99, time_pos = 99;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (sys[i].name == "size") size_pos = i;
    if (sys[i].name == "execution time") time_pos = i;
  }
  EXPECT_LT(size_pos, time_pos);
}

TEST(Vulnerability, BucketHelpers) {
  EXPECT_EQ(runtime_bucket(10), 0);
  EXPECT_EQ(runtime_bucket(399.9), 0);
  EXPECT_EQ(runtime_bucket(400), 1);
  EXPECT_EQ(runtime_bucket(1600), 2);
  EXPECT_EQ(runtime_bucket(6400), 3);
  EXPECT_EQ(runtime_bucket(1e6), 3);
  EXPECT_EQ(size_row(1, machine::bgp_model()), 0);
  EXPECT_EQ(size_row(80, machine::bgp_model()), 8);
  // Off-ladder sizes bucket into the next row up instead of throwing (they
  // can reach the analysis through non-BG/P machine models).
  EXPECT_EQ(size_row(3, machine::bgp_model()), 2);
  EXPECT_EQ(size_row(33, machine::bgp_model()), 6);
  EXPECT_EQ(size_row(81, machine::bgp_model()), 8);
  // Machine-derived rows: the BG/Q ladder {1,2,4,8,16,32,64,96}.
  EXPECT_EQ(size_row(96, machine::bgq_model()), 7);
  EXPECT_EQ(size_row(64, machine::bgq_model()), 6);
  EXPECT_EQ(size_row(48, machine::bgq_model()), 6);
}

TEST(Pipeline, DailySeriesSumsToInterruptions) {
  const auto& r = fixture().result;
  int total = 0;
  for (int n : r.interruptions_per_day) total += n;
  EXPECT_EQ(static_cast<std::size_t>(total), r.interruption_count());
}

TEST(Pipeline, WorkloadSeriesMatchesJobLog) {
  const auto& [data, result] = fixture();
  double total = 0;
  for (double w : result.workload_per_midplane) total += w;
  double expect = 0;
  for (const auto& job : data.jobs) {
    expect += static_cast<double>(job.runtime()) / kUsecPerSec *
              job.size_midplanes();
  }
  EXPECT_NEAR(total / expect, 1.0, 1e-9);
  // Wide workload is a subset of total workload, concentrated in 32..63.
  for (std::size_t m = 0; m < result.workload_per_midplane.size(); ++m) {
    EXPECT_LE(result.wide_workload_per_midplane[m],
              result.workload_per_midplane[m] + 1e-9);
  }
}

TEST(Pipeline, SystemPlusApplicationEqualsTotal) {
  const auto& r = fixture().result;
  EXPECT_EQ(r.system_interruptions + r.application_interruptions,
            r.interruption_count());
  EXPECT_LE(r.distinct_interrupted_jobs, r.interruption_count());
}

TEST(Report, RendersAllTwelveObservations) {
  const auto& [data, result] = fixture();
  const std::string report =
      render_observations(result, data.ras.summary(), data.jobs.summary());
  for (int i = 1; i <= 12; ++i) {
    EXPECT_NE(report.find(strformat("Observation %2d", i)), std::string::npos) << i;
  }
  EXPECT_NE(report.find("Census"), std::string::npos);

  const std::string stages = render_filter_stages(result);
  EXPECT_NE(stages.find("temporal"), std::string::npos);
  EXPECT_NE(stages.find("job-related"), std::string::npos);
}

}  // namespace
}  // namespace coral::core
