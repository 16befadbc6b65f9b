// The streaming front end must be *indistinguishable* from the frozen batch
// passes in frontend_oracle.hpp: identical groups, stage stats, causal
// pairs, interruption lists, classification counts and fitted distributions
// — through run_coanalysis, and when driven stage by stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "coral/common/error.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/machine/model.hpp"
#include "coral/obs/obs.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/stream/coanalysis.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/stream/matcher.hpp"
#include "coral/synth/intrepid.hpp"
#include "coral/synth/packs.hpp"
#include "bgp_fixture.hpp"
#include "frontend_oracle.hpp"

namespace coral {
namespace {

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(51, 30));
  return result;
}

core::CoAnalysisConfig sharded(int shards) {
  core::CoAnalysisConfig config;
  config.execution.shards = shards;
  return config;
}

const core::CoAnalysisResult& oracle_result() {
  static const core::CoAnalysisResult result = oracle::run_coanalysis(data().ras, data().jobs);
  return result;
}

void expect_identical(const core::CoAnalysisResult& a, const core::CoAnalysisResult& b) {
  // Filtered groups: same representatives, same member lists, same order.
  ASSERT_EQ(a.filtered.groups.size(), b.filtered.groups.size());
  for (std::size_t i = 0; i < a.filtered.groups.size(); ++i) {
    EXPECT_EQ(a.filtered.groups[i].rep, b.filtered.groups[i].rep) << "group " << i;
    EXPECT_EQ(a.filtered.groups[i].members, b.filtered.groups[i].members) << "group " << i;
  }
  EXPECT_EQ(a.filtered.causal_pairs, b.filtered.causal_pairs);
  ASSERT_EQ(a.filtered.stages.size(), b.filtered.stages.size());
  for (std::size_t i = 0; i < a.filtered.stages.size(); ++i) {
    EXPECT_EQ(a.filtered.stages[i].name, b.filtered.stages[i].name);
    EXPECT_EQ(a.filtered.stages[i].input, b.filtered.stages[i].input);
    EXPECT_EQ(a.filtered.stages[i].output, b.filtered.stages[i].output);
  }

  // Matching: identical interruption list and both index maps.
  ASSERT_EQ(a.matches.interruptions.size(), b.matches.interruptions.size());
  for (std::size_t i = 0; i < a.matches.interruptions.size(); ++i) {
    EXPECT_EQ(a.matches.interruptions[i].group, b.matches.interruptions[i].group);
    EXPECT_EQ(a.matches.interruptions[i].job, b.matches.interruptions[i].job);
    EXPECT_EQ(a.matches.interruptions[i].time, b.matches.interruptions[i].time);
  }
  EXPECT_EQ(a.matches.jobs_by_group, b.matches.jobs_by_group);
  EXPECT_EQ(a.matches.group_by_job, b.matches.group_by_job);

  // Downstream classification and filtering.
  EXPECT_EQ(a.identification.verdicts, b.identification.verdicts);
  EXPECT_EQ(a.classification.system_type_count(), b.classification.system_type_count());
  EXPECT_EQ(a.classification.application_type_count(),
            b.classification.application_type_count());
  EXPECT_EQ(a.classification.application_event_fraction,
            b.classification.application_event_fraction);
  EXPECT_EQ(a.job_filter.kept, b.job_filter.kept);
  EXPECT_EQ(a.job_filter.redundant_to, b.job_filter.redundant_to);

  // Census + fitted distributions, compared *exactly* (byte-identity).
  EXPECT_EQ(a.system_interruptions, b.system_interruptions);
  EXPECT_EQ(a.application_interruptions, b.application_interruptions);
  EXPECT_EQ(a.distinct_interrupted_jobs, b.distinct_interrupted_jobs);
  EXPECT_EQ(a.fatal_before_jobfilter.samples_sec, b.fatal_before_jobfilter.samples_sec);
  EXPECT_EQ(a.fatal_before_jobfilter.weibull.shape(),
            b.fatal_before_jobfilter.weibull.shape());
  EXPECT_EQ(a.fatal_before_jobfilter.weibull.scale(),
            b.fatal_before_jobfilter.weibull.scale());
  EXPECT_EQ(a.fatal_after_jobfilter.weibull.shape(),
            b.fatal_after_jobfilter.weibull.shape());
  EXPECT_EQ(a.interruptions_system.weibull.shape(), b.interruptions_system.weibull.shape());
  EXPECT_EQ(a.interruptions_system.exponential.rate(),
            b.interruptions_system.exponential.rate());
  EXPECT_EQ(a.interruptions_application.weibull.scale(),
            b.interruptions_application.weibull.scale());

  // Fig. 4 / Fig. 5 series.
  EXPECT_EQ(a.interruptions_per_day, b.interruptions_per_day);
  EXPECT_EQ(a.fatal_events_per_midplane, b.fatal_events_per_midplane);
  EXPECT_EQ(a.workload_per_midplane, b.workload_per_midplane);
  EXPECT_EQ(a.wide_workload_per_midplane, b.wide_workload_per_midplane);
}

TEST(StreamingEngine, SingleShardIdenticalToBatch) {
  const auto streaming = core::run_coanalysis(data().ras, data().jobs, sharded(1));
  EXPECT_EQ(streaming.shards_used, 1u);
  expect_identical(oracle_result(), streaming);
}

TEST(StreamingEngine, FourShardsIdenticalToBatch) {
  // The shard count and the context's pool are kept for source
  // compatibility and ignored: one serial pass, the oracle's answer.
  par::ThreadPool pool(4);
  const auto result = core::run_coanalysis(data().ras, data().jobs, sharded(4),
                                           Context().with_pool(&pool));
  EXPECT_EQ(result.shards_used, 1u);
  expect_identical(oracle_result(), result);
}

TEST(StreamingEngine, DefaultConfigUsesStreaming) {
  // run_coanalysis is the streaming front end followed by complete_coanalysis.
  const auto r = core::run_coanalysis(data().ras, data().jobs);
  auto front = stream::run_streaming_frontend(data().ras, data().jobs, {});
  EXPECT_EQ(r.shards_used, front.shards_used);
  EXPECT_EQ(r.peak_stage_state, front.peak_stage_state);
  expect_identical(core::complete_coanalysis(std::move(front.filtered),
                                             std::move(front.matches), data().jobs),
                   r);
}

TEST(StreamingEngine, PeakStateBoundedByWindowsNotLogLength) {
  const auto r = core::run_coanalysis(data().ras, data().jobs);
  EXPECT_GT(r.peak_stage_state, 0u);
  // The windowed working set must be far below the record count: the whole
  // point of the streaming stages. (A whole-log pass holds all n groups.)
  EXPECT_LT(r.peak_stage_state, r.filtered.fatal_events.size() / 2);
}

TEST(StreamingFrontEnd, MatchesBatchFilterAndMatcherDirectly) {
  const auto filtered = oracle::run_filter_pipeline(data().ras);
  const auto matches = oracle::match_interruptions(filtered, data().jobs, 120 * kUsecPerSec);

  stream::FrontEndConfig config;
  const auto front = stream::run_streaming_frontend(data().ras, data().jobs, config);

  ASSERT_EQ(front.filtered.groups.size(), filtered.groups.size());
  for (std::size_t i = 0; i < filtered.groups.size(); ++i) {
    EXPECT_EQ(front.filtered.groups[i].rep, filtered.groups[i].rep);
    EXPECT_EQ(front.filtered.groups[i].members, filtered.groups[i].members);
  }
  EXPECT_EQ(front.filtered.causal_pairs, filtered.causal_pairs);
  EXPECT_EQ(front.matches.jobs_by_group, matches.jobs_by_group);
  EXPECT_EQ(front.matches.group_by_job, matches.group_by_job);
  ASSERT_EQ(front.matches.interruptions.size(), matches.interruptions.size());
  for (std::size_t i = 0; i < matches.interruptions.size(); ++i) {
    EXPECT_EQ(front.matches.interruptions[i].group, matches.interruptions[i].group);
    EXPECT_EQ(front.matches.interruptions[i].job, matches.interruptions[i].job);
  }
}

// Randomized differential: 20 seeded scenario/workload/storm combinations,
// each requiring the streaming engine to be byte-identical to the oracle.
// The combinations sweep the axes that have historically produced
// divergence: storm burst shape (group sizes near window edges), causality
// on/off (three- vs four-stage pipeline) and match window (30 s to 15 min,
// including windows wider than the causality window). Every window meets
// causality off. Two scenario packs follow: a BG/P failure_storm, whose
// storm groups chain over a thousand members, and a short BG/Q
// multi_year_drift, which decodes with the BG/Q codec.
TEST(StreamingEngine, RandomizedDifferentialAgainstBatch) {
  constexpr int kCombos = 20;
  constexpr Usec kWindowsSec[] = {30, 120, 300, 900};
  for (int i = 0; i < kCombos; ++i) {
    SCOPED_TRACE("combo " + std::to_string(i));

    synth::ScenarioConfig scenario =
        synth::small_scenario(/*seed=*/1000 + static_cast<std::uint64_t>(i) * 7,
                              /*days=*/6 + (i % 4) * 3);
    // Storm shape: quiet logs, the calibrated default, and record blizzards.
    scenario.storm.temporal_extra_mean = 1.0 + (i % 3) * 7.0;
    scenario.storm.spatial_nodes_mean = 4.0 + (i % 5) * 12.0;
    scenario.storm.cascade_prob = 0.1 * (i % 7);
    scenario.storm.idle_extra_mean = 2.0 + (i % 4) * 6.0;
    // Workload density: sparse through busy machines.
    scenario.workload.target_submissions = 400 + (i % 6) * 300;

    const synth::SynthResult run = synth::generate(scenario);
    if (run.ras.summary().fatal_records == 0) continue;  // nothing to diverge on

    core::CoAnalysisConfig config;
    config.filters.enable_causality = i % 3 != 2;
    config.matching.window = kWindowsSec[(i / 5) % 4] * kUsecPerSec;
    const auto reference = oracle::run_coanalysis(run.ras, run.jobs, config);
    expect_identical(reference, core::run_coanalysis(run.ras, run.jobs, config));
    if (HasFatalFailure()) return;  // one combo's dump is enough
  }

  struct PackInput {
    const machine::MachineModel* machine;
    const char* pack;
    int days;
  };
  for (const PackInput& in : {PackInput{&machine::bgp_model(), "failure_storm", 14},
                              PackInput{&machine::bgq_model(), "multi_year_drift", 10}}) {
    SCOPED_TRACE(in.pack);
    synth::ScenarioConfig scenario = synth::pack_scenario(*in.machine, in.pack, 17, in.days);
    scenario.days = in.days;  // multi_year_drift declares a two-year horizon
    const synth::SynthResult run = synth::generate(scenario);
    const auto reference = oracle::run_coanalysis(run.ras, run.jobs);
    if (in.machine == &machine::bgp_model()) {
      std::size_t longest = 0;
      for (const filter::EventGroup& g : reference.filtered.groups) {
        longest = std::max(longest, g.members.size());
      }
      EXPECT_GE(longest, 1000u);
    }
    expect_identical(reference, core::run_coanalysis(run.ras, run.jobs));
    if (HasFatalFailure()) return;
  }
}

// The two-pass front end driven stage by stage, the way a live consumer
// tails the logs: a mining pass, then the filter feeding causality merging
// (with the mined pairs) into the matcher, with FATAL records and job
// terminations delivered in day-sized windows, merged in time order.
// Groups and per-group matches must equal the oracle's.
TEST(StreamingFrontEnd, DayWindowDeliveryMatchesOracle) {
  const synth::SynthResult& d = data();
  const filter::FilterPipelineConfig filters;
  const ras::FatalColumns& fatal = d.ras.fatal_columns();
  const std::vector<std::size_t>& by_end = d.jobs.by_end_time();

  stream::MemberChain mined_members(fatal.size());
  stream::GroupBuffer mined;
  stream::StreamingFilter::Options mine_options;
  mine_options.mine_pairs = true;
  stream::StreamingFilter miner(mine_options, mined_members, mined);
  for (std::size_t i = 0; i < fatal.size(); ++i) {
    miner.on_fatal(fatal.event_time[i], fatal.errcode[i], fatal.loc_key[i], i);
  }
  miner.flush();
  const auto pairs =
      stream::PairMiner::accept(miner.miner()->counts(), filters.causality.min_support);

  stream::MemberChain members(fatal.size());
  std::vector<filter::EventGroup> groups;
  std::vector<std::vector<std::size_t>> jobs_by_group;
  stream::StreamingMatcher matcher(
      120 * kUsecPerSec,
      [&](stream::StreamingMatcher::GroupMatch&& m) {
        groups.push_back(members.to_event_group(m.group));
        jobs_by_group.push_back(std::move(m.jobs));
      },
      members, fatal.loc_key, d.jobs.machine().codec());
  stream::CausalityCoalescer causality(filters.causality.window, pairs, members, &matcher);
  stream::StreamingFilter live({}, members, causality);
  // Everything before `until` not yet delivered, a record before a
  // termination at the same time.
  std::size_t next_fatal = 0, next_end = 0;
  const auto deliver_until = [&](TimePoint until) {
    std::size_t n = 0;
    for (;; ++n) {
      const bool fatal_due = next_fatal < fatal.size() && fatal.event_time[next_fatal] < until;
      const joblog::JobRecord* job =
          next_end < by_end.size() ? &d.jobs[by_end[next_end]] : nullptr;
      const bool end_due = job != nullptr && job->end_time < until;
      if (fatal_due && (!end_due || fatal.event_time[next_fatal] <= job->end_time)) {
        live.on_fatal(fatal.event_time[next_fatal], fatal.errcode[next_fatal],
                      fatal.loc_key[next_fatal], next_fatal);
        ++next_fatal;
      } else if (end_due) {
        matcher.on_job_end(*job, by_end[next_end]);
        ++next_end;
      } else {
        return n;
      }
    }
  };
  const TimePoint start = std::min(d.ras.summary().first_time, d.jobs[0].start_time);
  std::size_t delivered = 0;
  for (int day = 0; day < 31; ++day) {
    delivered += deliver_until(start + (day + 1) * kUsecPerDay);
  }
  delivered += deliver_until(TimePoint(std::numeric_limits<Usec>::max()));
  live.flush();

  const auto filtered = oracle::run_filter_pipeline(d.ras, filters);
  const auto matches = oracle::match_interruptions(filtered, d.jobs, 120 * kUsecPerSec);
  EXPECT_EQ(delivered, filtered.fatal_events.size() + d.jobs.size());
  EXPECT_EQ(mined.groups.size(), filtered.stages[2].output);  // spatial output
  EXPECT_EQ(pairs, filtered.causal_pairs);
  EXPECT_EQ(live.raw_count(), filtered.fatal_events.size());
  ASSERT_EQ(groups.size(), filtered.groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].rep, filtered.groups[i].rep) << "group " << i;
    EXPECT_EQ(groups[i].members, filtered.groups[i].members) << "group " << i;
  }
  EXPECT_EQ(jobs_by_group, matches.jobs_by_group);
  EXPECT_EQ(matcher.groups_out(), groups.size());
  EXPECT_LT(live.peak_buffered() + causality.peak_chains() + matcher.peak_buffered(),
            filtered.fatal_events.size() / 2);
}

// ---- hand-built logs: FATAL records on whole midplanes, hand-placed jobs ---

const TimePoint kBase = TimePoint::from_calendar(2009, 3, 1);

struct Fatal {
  const char* code;
  double sec;
  bgp::MidplaneId midplane;
};

ras::RasLog fatal_log(const std::vector<Fatal>& records) {
  std::vector<ras::RasEvent> events;
  for (const Fatal& f : records) {
    ras::RasEvent ev;
    ev.errcode = *ras::Catalog::instance().find(f.code);
    ev.severity = ras::Severity::Fatal;
    ev.event_time = kBase + static_cast<Usec>(f.sec * kUsecPerSec);
    ev.location = testing::bgp_midplane(f.midplane);
    events.push_back(ev);
  }
  return ras::RasLog(std::move(events));
}

ras::RasLog one_fatal(double t_sec) {
  return fatal_log({{ras::codes::kRasStormFatal, t_sec, 0}});
}

joblog::JobLog one_job(double start_sec, double end_sec) {
  joblog::JobLog jobs;
  joblog::JobRecord j;
  j.job_id = 1;
  j.exec_id = jobs.intern_exec("/bin/app");
  j.user_id = jobs.intern_user("u0");
  j.project_id = jobs.intern_project("p0");
  j.queue_time = kBase + static_cast<Usec>(start_sec * kUsecPerSec);
  j.start_time = j.queue_time;
  j.end_time = kBase + static_cast<Usec>(end_sec * kUsecPerSec);
  j.partition = testing::bgp_part(0, 1);
  jobs.append(j);
  jobs.finalize();
  return jobs;
}

void expect_one_interruption(const ras::RasLog& ras, const joblog::JobLog& jobs,
                             const core::CoAnalysisConfig& config) {
  const auto reference = oracle::run_coanalysis(ras, jobs, config);
  ASSERT_EQ(reference.interruption_count(), 1u);
  expect_identical(reference, core::run_coanalysis(ras, jobs, config));
}

// A group that reaches the matcher before the first job end must
// wait for it: the matcher's clock starts at the minimum time point, and
// resolving against that clock once dropped the match.
TEST(StreamingMatcher, GroupBeforeFirstJobEndStillMatches) {
  core::CoAnalysisConfig config;
  config.filters.enable_causality = false;  // groups go straight to the matcher
  expect_one_interruption(one_fatal(100), one_job(0, 150), config);
}

TEST(StreamingMatcher, GroupReleasedByJobEndWatermarkStillMatches) {
  // The causality stage releases the group on the job end's watermark (400 s
  // is past the 120 s causality window) before the matcher sees that end;
  // with a 900 s match window the end still matches.
  core::CoAnalysisConfig config;
  config.matching.window = 900 * kUsecPerSec;
  expect_one_interruption(one_fatal(100), one_job(0, 400), config);
}

// ---- window-gated terminations --------------------------------------------
//
// Phase 2 delivers a job termination only when a spatial group's rep lies
// within +/-window of it. These logs pin the edges of that gate.

/// One job per end time on `midplane`, each started an hour before its end
/// (so job indices follow the end times).
joblog::JobLog jobs_ending_at(const std::vector<TimePoint>& ends, bgp::MidplaneId midplane = 0) {
  joblog::JobLog jobs;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    joblog::JobRecord j;
    j.job_id = static_cast<std::int64_t>(i + 1);
    j.exec_id = jobs.intern_exec("/bin/app" + std::to_string(i));
    j.user_id = jobs.intern_user("u0");
    j.project_id = jobs.intern_project("p0");
    j.start_time = ends[i] - 3600 * kUsecPerSec;
    j.queue_time = j.start_time;
    j.end_time = ends[i];
    j.partition = testing::bgp_part(midplane, 1);
    jobs.append(j);
  }
  jobs.finalize();
  return jobs;
}

constexpr double kDay = 86400;

TEST(StreamingMatcher, GatedTerminationsMatchOnBothWindowEdges) {
  // Two groups a day apart. The termination in the quiet stretch between
  // them lies in no window and is jumped; at the second rep R the window
  // [R - w, R + w] keeps both edges, and R + w + 1 us falls outside.
  const Usec w = 120 * kUsecPerSec;
  const TimePoint r = kBase + static_cast<Usec>(kDay * kUsecPerSec);
  const ras::RasLog ras =
      fatal_log({{ras::codes::kRasStormFatal, 0, 0}, {ras::codes::kRasStormFatal, kDay, 0}});
  const joblog::JobLog jobs = jobs_ending_at(
      {kBase + 60 * kUsecPerSec, kBase + static_cast<Usec>(kDay / 2 * kUsecPerSec), r - w,
       r + w, r + w + 1});
  core::CoAnalysisConfig config;
  config.matching.window = w;
  obs::Collector c;
  const auto result = core::run_coanalysis(ras, jobs, config, Context().with_obs(&c));
  expect_identical(oracle::run_coanalysis(ras, jobs, config), result);
  ASSERT_EQ(result.matches.jobs_by_group.size(), 2u);
  EXPECT_EQ(result.matches.jobs_by_group[0], std::vector<std::size_t>{0});
  EXPECT_EQ(result.matches.jobs_by_group[1], (std::vector<std::size_t>{2, 3}));
  const obs::Snapshot snap = c.snapshot();
  EXPECT_EQ(snap.counter_value("stream.terminations_walked"), 5u);
  EXPECT_EQ(snap.counter_value("stream.terminations_delivered"), 3u);
}

TEST(StreamingMatcher, TerminationInTwoWindowsGoesToTheFirstGroup) {
  // Two codes 100 s apart (one co-occurrence: no causal pair), and one job
  // ending between them, inside both 120 s windows.
  const ras::RasLog ras =
      fatal_log({{ras::codes::kRasStormFatal, 0, 0}, {ras::codes::kDdrController, 100, 0}});
  const joblog::JobLog jobs = jobs_ending_at({kBase + 50 * kUsecPerSec});
  const auto result = core::run_coanalysis(ras, jobs);
  expect_identical(oracle::run_coanalysis(ras, jobs), result);
  ASSERT_EQ(result.matches.jobs_by_group.size(), 2u);
  EXPECT_EQ(result.matches.jobs_by_group[0], std::vector<std::size_t>{0});
  EXPECT_EQ(result.matches.jobs_by_group[1], std::vector<std::size_t>{0});
  ASSERT_EQ(result.matches.interruptions.size(), 1u);
  EXPECT_EQ(result.matches.interruptions[0].group, 0u);
}

TEST(StreamingMatcher, CausalityFollowerMatchesThroughItsLeader) {
  // Five storm -> DDR co-occurrences a day apart mine the pair (support 5),
  // so each DDR follower, 100 s after its storm leader and on another
  // midplane, is merged into the leader. The only job runs on the
  // follower's midplane and ends 20 s before the last leader: inside the
  // leader's 30 s window, 120 s away from the follower's own rep.
  std::vector<Fatal> records;
  for (int d = 0; d < 5; ++d) {
    records.push_back({ras::codes::kRasStormFatal, d * kDay, 0});
    records.push_back({ras::codes::kDdrController, d * kDay + 100, 2});
  }
  const ras::RasLog ras = fatal_log(records);
  const TimePoint leader = kBase + static_cast<Usec>(4 * kDay * kUsecPerSec);
  const joblog::JobLog jobs = jobs_ending_at({leader - 20 * kUsecPerSec}, /*midplane=*/2);
  core::CoAnalysisConfig config;
  config.matching.window = 30 * kUsecPerSec;
  const auto result = core::run_coanalysis(ras, jobs, config);
  expect_identical(oracle::run_coanalysis(ras, jobs, config), result);
  ASSERT_EQ(result.filtered.causal_pairs.size(), 1u);
  ASSERT_EQ(result.filtered.groups.size(), 5u);
  EXPECT_EQ(result.filtered.groups[4].members, (std::vector<std::size_t>{8, 9}));
  EXPECT_EQ(result.matches.jobs_by_group[4], std::vector<std::size_t>{0});
  EXPECT_EQ(result.matches.group_by_job[0], 4);
}

TEST(StreamingMatcher, StandaloneKeepsJobEndsUntilAWatermarkArrives) {
  // Driven directly, with no filter upstream: job ends buffered before any
  // group watermark must survive eviction, and a weaker (earlier) watermark
  // never undoes a stronger one.
  const joblog::JobLog jobs = one_job(0, 150);
  const stream::MemberChain members(1);
  std::vector<std::vector<std::size_t>> matched;
  stream::StreamingMatcher matcher(
      120 * kUsecPerSec,
      [&](stream::StreamingMatcher::GroupMatch&& m) { matched.push_back(std::move(m.jobs)); },
      members, {}, machine::bgp_model().codec());
  matcher.on_job_end(jobs[0], 0);
  stream::StreamGroup g = stream::StreamGroup::single(0, kBase + 200 * kUsecPerSec, 0,
                                                      testing::bgp_midplane(0).packed());
  matcher.on_watermark(g.rep_time);
  matcher.on_watermark(kBase);  // weaker promise: ignored
  matcher.on_group(std::move(g));
  matcher.flush();
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0], std::vector<std::size_t>{0});
  EXPECT_EQ(matcher.groups_out(), 1u);
  EXPECT_EQ(matcher.peak_buffered(), 2u);  // the job end and the pending group
}

TEST(StreamingFilter, RejectsARecordBeyondItsMemberChain) {
  // The chain must cover every record index the filter is fed: an index
  // past its end is refused before any stage could splice it.
  stream::MemberChain members(2);
  stream::GroupBuffer out;
  stream::StreamingFilter filter({}, members, out);
  filter.on_fatal(kBase, 0, 0, 1);
  EXPECT_THROW(filter.on_fatal(kBase, 0, 0, 2), InvalidArgument);
  EXPECT_EQ(filter.raw_count(), 1u);
}

}  // namespace
}  // namespace coral
