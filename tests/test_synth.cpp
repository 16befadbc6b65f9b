#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/context.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/obs/obs.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral::synth {
namespace {

using ras::Catalog;
using ras::FaultNature;

const SynthResult& small_result() {
  static const SynthResult result = generate(small_scenario(7));
  return result;
}

TEST(Workload, AppTableHasRequestedShape) {
  WorkloadConfig config;
  config.distinct_apps = 500;
  config.target_submissions = 3000;
  Rng rng(1);
  const Workload w =
      generate_workload(config, TimePoint::from_calendar(2009, 1, 5), 30, rng);
  EXPECT_EQ(w.apps.size(), 500u);
  for (const App& app : w.apps) {
    EXPECT_GT(app.base_runtime, 0);
    EXPECT_TRUE(std::count(kJobSizes.begin(), kJobSizes.end(), app.size_midplanes));
    if (app.buggy) {
      EXPECT_LT(app.size_midplanes, config.buggy_max_size);
      EXPECT_GE(app.bug_difficulty, config.bug_difficulty_min);
      EXPECT_LE(app.bug_difficulty, config.bug_difficulty_max);
      EXPECT_EQ(Catalog::instance().info(app.bug_code).nature,
                FaultNature::ApplicationError);
    }
  }
}

TEST(Workload, ScheduleSortedAndWithinHorizon) {
  WorkloadConfig config;
  config.distinct_apps = 400;
  config.target_submissions = 2500;
  Rng rng(2);
  const TimePoint start = TimePoint::from_calendar(2009, 1, 5);
  const Workload w = generate_workload(config, start, 30, rng);
  const TimePoint end = start + 30 * kUsecPerDay;
  ASSERT_FALSE(w.schedule.empty());
  for (std::size_t i = 0; i < w.schedule.size(); ++i) {
    EXPECT_GE(w.schedule[i].arrival, start);
    EXPECT_LT(w.schedule[i].arrival, end);
    if (i) {
      EXPECT_GE(w.schedule[i].arrival, w.schedule[i - 1].arrival);
    }
  }
}

TEST(Workload, MultiSubmitFractionRoughlyMatches) {
  WorkloadConfig config;
  config.distinct_apps = 2000;
  config.target_submissions = 14000;
  Rng rng(3);
  const Workload w =
      generate_workload(config, TimePoint::from_calendar(2009, 1, 5), 237, rng);
  std::map<std::int32_t, int> counts;
  for (const Submission& s : w.schedule) counts[s.app] += 1;
  int multi = 0;
  for (const auto& [app, n] : counts) multi += n > 1 ? 1 : 0;
  const double frac = static_cast<double>(multi) / static_cast<double>(counts.size());
  EXPECT_NEAR(frac, config.multi_submit_prob, 0.08);
}

TEST(Workload, BugManifestMostlyUnderOneHour) {
  WorkloadConfig config;
  Rng rng(4);
  int early = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (sample_bug_manifest(config, rng) < kUsecPerHour) ++early;
  }
  EXPECT_GT(static_cast<double>(early) / n, 0.80);
}

TEST(Simulation, DeterministicAcrossRuns) {
  const SynthResult a = generate(small_scenario(99, 7));
  const SynthResult b = generate(small_scenario(99, 7));
  ASSERT_EQ(a.ras.size(), b.ras.size());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.ras.size(); i += 97) {
    EXPECT_EQ(a.ras[i].event_time, b.ras[i].event_time);
    EXPECT_EQ(a.ras[i].errcode, b.ras[i].errcode);
    EXPECT_EQ(a.ras[i].location, b.ras[i].location);
  }
  for (std::size_t i = 0; i < a.jobs.size(); i += 31) {
    EXPECT_EQ(a.jobs[i].job_id, b.jobs[i].job_id);
    EXPECT_EQ(a.jobs[i].start_time, b.jobs[i].start_time);
    EXPECT_EQ(a.jobs[i].partition, b.jobs[i].partition);
  }
  EXPECT_EQ(a.truth.faults.size(), b.truth.faults.size());
  EXPECT_EQ(a.truth.interruptions.size(), b.truth.interruptions.size());
}

TEST(Simulation, DifferentSeedsDiffer) {
  const SynthResult a = generate(small_scenario(1, 7));
  const SynthResult b = generate(small_scenario(2, 7));
  EXPECT_NE(a.ras.size(), b.ras.size());
}

TEST(Simulation, NoOverlappingJobsOnAnyMidplane) {
  const SynthResult& r = small_result();
  // Sweep per midplane: intervals must not overlap.
  std::vector<std::vector<std::pair<TimePoint, TimePoint>>> intervals(
      static_cast<std::size_t>(machine::bgp_model().midplane_count()));
  for (const auto& job : r.jobs) {
    for (bgp::MidplaneId m : job.partition.midplanes()) {
      intervals[static_cast<std::size_t>(m)].push_back({job.start_time, job.end_time});
    }
  }
  for (auto& v : intervals) {
    std::sort(v.begin(), v.end());
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_LE(v[i - 1].second, v[i].first) << "overlapping allocation";
    }
  }
}

TEST(Simulation, JobTimesAreOrdered) {
  const SynthResult& r = small_result();
  const ScenarioConfig config = small_scenario(7);
  for (const auto& job : r.jobs) {
    EXPECT_LE(job.queue_time, job.start_time);
    EXPECT_LT(job.start_time, job.end_time);
    EXPECT_GE(job.queue_time, config.start - kUsecPerDay);
    EXPECT_LE(job.end_time, config.end());
  }
}

TEST(Simulation, RasLogSortedWithSequentialRecids) {
  const SynthResult& r = small_result();
  // A RECID is the position plus one; the truth tags are indexed by it.
  ASSERT_EQ(r.truth.record_tags.size(), r.ras.size());
  for (std::size_t i = 0; i < r.ras.size(); ++i) {
    if (i) {
      EXPECT_LE(r.ras[i - 1].event_time, r.ras[i].event_time);
    }
  }
}

TEST(Simulation, RecordTagsAlignWithLog) {
  const SynthResult& r = small_result();
  ASSERT_EQ(r.truth.record_tags.size(), r.ras.size());
  for (std::size_t i = 0; i < r.ras.size(); ++i) {
    const std::int32_t tag = r.truth.record_tags[i];
    if (tag < 0) continue;  // noise
    ASSERT_LT(static_cast<std::size_t>(tag), r.truth.faults.size());
    const FaultInstanceTruth& fault = r.truth.faults[static_cast<std::size_t>(tag)];
    // Tagged records carry either the fault's code or its cascade partner,
    // and fire within the storm horizon of the manifestation.
    const Usec gap = r.ras[i].event_time - fault.time;
    EXPECT_GE(gap, 0);
    EXPECT_LT(gap, 30 * kUsecPerMin);
  }
}

TEST(Simulation, TaggedRecordsAreFatalNoiseIsNot) {
  const SynthResult& r = small_result();
  for (std::size_t i = 0; i < r.ras.size(); ++i) {
    if (r.truth.record_tags[i] >= 0) {
      EXPECT_EQ(r.ras[i].severity, ras::Severity::Fatal);
    } else {
      EXPECT_NE(r.ras[i].severity, ras::Severity::Fatal);
    }
  }
}

TEST(Simulation, InterruptionsReferenceRealJobsAndFaults) {
  const SynthResult& r = small_result();
  std::set<std::int64_t> job_ids;
  for (const auto& job : r.jobs) job_ids.insert(job.job_id);
  for (const auto& in : r.truth.interruptions) {
    EXPECT_TRUE(job_ids.count(in.job_id));
    ASSERT_GE(in.fault_instance, 0);
    ASSERT_LT(static_cast<std::size_t>(in.fault_instance), r.truth.faults.size());
  }
}

TEST(Simulation, InterruptedJobsEndAtInterruptionTime) {
  const SynthResult& r = small_result();
  std::map<std::int64_t, const joblog::JobRecord*> by_id;
  for (const auto& job : r.jobs) by_id[job.job_id] = &job;
  for (const auto& in : r.truth.interruptions) {
    const auto it = by_id.find(in.job_id);
    ASSERT_NE(it, by_id.end());
    EXPECT_NEAR(static_cast<double>(it->second->end_time - in.time), 0.0,
                static_cast<double>(2 * kUsecPerSec));
  }
}

TEST(Simulation, IdleBiasCodesNeverInterrupt) {
  const SynthResult& r = small_result();
  const Catalog& cat = Catalog::instance();
  for (const auto& in : r.truth.interruptions) {
    EXPECT_FALSE(cat.info(in.code).idle_bias) << cat.info(in.code).name;
    EXPECT_EQ(cat.info(in.code).impact, ras::JobImpact::Interrupting);
  }
}

TEST(Simulation, RedundantFaultsPointToOriginals) {
  const SynthResult& r = small_result();
  for (const auto& f : r.truth.faults) {
    if (f.redundant_of < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(f.redundant_of), r.truth.faults.size());
    const auto& orig = r.truth.faults[static_cast<std::size_t>(f.redundant_of)];
    EXPECT_EQ(orig.code, f.code);
    EXPECT_EQ(orig.location, f.location);
    EXPECT_LT(orig.time, f.time);
    EXPECT_LT(orig.redundant_of, 0);  // originals are not themselves redundant
  }
}

TEST(Simulation, NoiseDisabledMeansOnlyFatalRecords) {
  ScenarioConfig config = small_scenario(13, 7);
  config.noise.enabled = false;
  const SynthResult r = generate(config);
  for (const auto& ev : r.ras) {
    EXPECT_EQ(ev.severity, ras::Severity::Fatal);
  }
}

TEST(Simulation, WideJobsLandInReservedRegion) {
  const SynthResult& r = small_result();
  std::size_t wide = 0, in_region = 0;
  for (const auto& job : r.jobs) {
    if (job.size_midplanes() != 32) continue;
    ++wide;
    if (job.partition.first_midplane() == 32) ++in_region;
  }
  if (wide >= 5) {
    EXPECT_GT(static_cast<double>(in_region) / static_cast<double>(wide), 0.5);
  }
}

TEST(Simulation, RejectsJobSizeTheMachineCannotPlace) {
  // The BG/P size ladder on BG/Q: 48 and 80 midplanes are not legal BG/Q
  // partitions, so such a job could never be placed or reserved for.
  ScenarioConfig config = small_scenario(7, 30);
  config.machine = &machine::bgq_model();
  config.workload.job_sizes = {1, 2, 4, 8, 16, 32, 48, 64, 80};
  EXPECT_THROW(generate(config), InvalidArgument);
}

TEST(Simulation, CollectorSeesEachPhaseWithoutChangingTheLog) {
  const ScenarioConfig config = small_scenario(7, 7);
  obs::Collector collector;
  Context ctx;
  ctx.with_obs(&collector);
  const SynthResult traced = generate(config, ctx);
  const SynthResult plain = generate(config);
  EXPECT_EQ(fleet::log_fingerprint(traced.ras, traced.jobs),
            fleet::log_fingerprint(plain.ras, plain.jobs));

  const obs::Snapshot snap = collector.snapshot();
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < snap.spans.size(); ++i) by_name[snap.spans[i].name].push_back(i);
  for (const char* name : {"synth.workload", "synth.simulate", "synth.noise", "synth.assemble"}) {
    ASSERT_EQ(by_name[name].size(), 1u) << name;
  }
  const obs::SpanRecord& noise = snap.spans[by_name["synth.noise"].front()];
  EXPECT_EQ(noise.parent, static_cast<std::int32_t>(by_name["synth.simulate"].front()));
  EXPECT_EQ(noise.in, plain.jobs.size());
  EXPECT_GT(noise.out, 0u);
  EXPECT_EQ(snap.spans[by_name["synth.assemble"].front()].out, plain.ras.size());

  const std::uint64_t passes = snap.counter_value("synth.schedule.passes");
  const std::uint64_t examined = snap.counter_value("synth.schedule.examined");
  const std::uint64_t walks = snap.counter_value("synth.schedule.walks");
  const std::uint64_t skips = snap.counter_value("synth.schedule.no_fit_skips");
  EXPECT_GT(passes, 0u);
  EXPECT_GT(walks, 0u);
  EXPECT_GT(skips, 0u);
  // Without fault-aware placement each examined job is walked once, skipped
  // by the no-fit rule, or left waiting for its previous partition.
  EXPECT_LE(walks + skips, examined);
}

TEST(Scenario, IntrepidPresetMatchesPaperConstants) {
  const ScenarioConfig config = intrepid_scenario(42);
  EXPECT_EQ(config.days, 237);
  EXPECT_EQ(config.start, TimePoint::from_calendar(2009, 1, 5));
  EXPECT_EQ(config.workload.distinct_apps, 9664u);
  EXPECT_EQ(config.workload.users, 236);
  EXPECT_EQ(config.workload.projects, 91);
  EXPECT_NEAR(config.workload.multi_submit_prob, 0.574, 1e-9);
}

}  // namespace
}  // namespace coral::synth
