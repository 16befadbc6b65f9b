// Explicit coverage of the rare branch arms of the streaming front end
// (stream/matcher.cpp, stream/coanalysis.cpp) on hand-placed records:
// rack-location coverage, members spanning the whole machine, repeated
// member locations, zero-duration jobs, first-group-wins tie-breaking and
// the causality-disabled stage list. These arms are easy to miss from
// scenario-level suites because calibrated logs rarely produce rack-level
// fatal locations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/ras/catalog.hpp"
#include "coral/stream/coanalysis.hpp"

#include "bgp_fixture.hpp"

namespace coral::core {
namespace {

const TimePoint kBase = TimePoint::from_calendar(2009, 3, 1);

ras::RasEvent fatal_at(double t_sec, bgp::Location loc,
                       const char* code = ras::codes::kRasStormFatal) {
  ras::RasEvent ev;
  ev.errcode = *ras::Catalog::instance().find(code);
  ev.severity = ras::Severity::Fatal;
  ev.event_time = kBase + static_cast<Usec>(t_sec * kUsecPerSec);
  ev.location = loc;
  return ev;
}

joblog::JobRecord job_on(std::int64_t id, double start_sec, double end_sec,
                         bgp::MidplaneId first, int midplanes = 1) {
  joblog::JobRecord j;
  j.job_id = id;
  j.start_time = kBase + static_cast<Usec>(start_sec * kUsecPerSec);
  j.end_time = kBase + static_cast<Usec>(end_sec * kUsecPerSec);
  j.partition = testing::bgp_part(first, midplanes);
  return j;
}

joblog::JobLog make_jobs(std::vector<joblog::JobRecord> records) {
  joblog::JobLog jobs;
  const joblog::ExecId exec = jobs.intern_exec("/bin/app");
  const joblog::UserId user = jobs.intern_user("u0");
  const joblog::ProjectId project = jobs.intern_project("p0");
  for (joblog::JobRecord& j : records) {
    j.exec_id = exec;
    j.user_id = user;
    j.project_id = project;
    jobs.append(j);
  }
  jobs.finalize();
  return jobs;
}

/// The streaming front end over hand-placed FATAL records.
stream::FrontEndResult front_end(std::vector<ras::RasEvent> events,
                                 const joblog::JobLog& jobs, bool causality = true) {
  const ras::RasLog log(std::move(events));
  stream::FrontEndConfig config;
  config.filters.enable_causality = causality;
  return stream::run_streaming_frontend(log, jobs, config);
}

std::vector<std::int64_t> matched_ids(const MatchResult& result,
                                      const joblog::JobLog& jobs) {
  std::vector<std::int64_t> ids;
  for (const Interruption& i : result.interruptions) ids.push_back(jobs[i.job].job_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(MatchBranches, RackLocationExpandsToEveryMidplaneOfTheRack) {
  // A rack-level fatal location (R03, midplanes 6 and 7) must match jobs on
  // either midplane of that rack and nothing in the neighbouring rack.
  const auto jobs = make_jobs({
      job_on(1, 0, 1010, bgp::MidplaneId(6)),
      job_on(2, 0, 1020, bgp::MidplaneId(7)),
      job_on(3, 0, 1030, bgp::MidplaneId(8)),  // rack 4: outside the footprint
  });
  const auto front = front_end({fatal_at(1000, testing::bgp_rack(3))}, jobs);
  EXPECT_EQ(matched_ids(front.matches, jobs), (std::vector<std::int64_t>{1, 2}));
}

TEST(MatchBranches, FootprintSaturatesAtWholeMachineAndStopsTheMemberScan) {
  // Rack-level records over every rack, merged by the spatial stage into one
  // group, cover the whole machine: every job ending in the window matches,
  // each found by the first member whose location its partition covers.
  std::vector<ras::RasEvent> events;
  for (int r = 0; r < machine::bgp_model().topology().racks; ++r)
    events.push_back(fatal_at(1000, testing::bgp_rack(r)));
  events.push_back(fatal_at(1000, testing::bgp_midplane(0)));
  const auto jobs = make_jobs({
      job_on(1, 0, 1010, bgp::MidplaneId(0)),
      job_on(2, 0, 1020, bgp::MidplaneId(39)),
      job_on(3, 0, 1030, bgp::MidplaneId(machine::bgp_model().midplane_count() - 1)),
  });
  const auto front = front_end(std::move(events), jobs);
  ASSERT_EQ(front.filtered.groups.size(), 1u);
  EXPECT_EQ(front.filtered.groups[0].members.size(),
            static_cast<std::size_t>(machine::bgp_model().topology().racks) + 1);
  EXPECT_EQ(matched_ids(front.matches, jobs), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(MatchBranches, DuplicateMemberLocationsTouchEachMidplaneOnce) {
  // Three members on the same midplane (one temporal chain): the job is
  // matched exactly once.
  const auto jobs = make_jobs({job_on(1, 0, 1010, bgp::MidplaneId(5))});
  const auto front = front_end({fatal_at(1000, testing::bgp_midplane(5)),
                                fatal_at(1001, testing::bgp_midplane(5)),
                                fatal_at(1002, testing::bgp_midplane(5))},
                               jobs);
  ASSERT_EQ(front.filtered.groups.size(), 1u);
  ASSERT_EQ(front.matches.interruptions.size(), 1u);
  EXPECT_EQ(front.matches.jobs_by_group[0], std::vector<std::size_t>{0});
}

TEST(MatchBranches, InvertedIntervalsAreRejectedAtAppendTime) {
  // The matcher takes every buffered job end inside [lo, hi] without
  // re-checking start times. That is sound only because the JobLog refuses
  // inverted intervals at the door — pin the invariant the matcher leans on.
  EXPECT_THROW(make_jobs({job_on(2, 5000, 1020, bgp::MidplaneId(2))}),
               coral::InvalidArgument);
  // Zero-duration jobs are legal and match like any other in-window end.
  const auto jobs = make_jobs({job_on(1, 1010, 1010, bgp::MidplaneId(2))});
  const auto front = front_end({fatal_at(1000, testing::bgp_midplane(2))}, jobs);
  EXPECT_EQ(matched_ids(front.matches, jobs), std::vector<std::int64_t>{1});
}

TEST(MatchBranches, FirstGroupClaimsAJobMatchedByTwoGroups) {
  // Two groups (different errcodes, so no filter merges them) both cover the
  // job's partition within the window; the job goes to the earlier group
  // only, and the candidate lists still record both.
  const auto jobs = make_jobs({job_on(7, 0, 1010, bgp::MidplaneId(0))});
  const auto front = front_end(
      {fatal_at(1000, testing::bgp_midplane(0)),
       fatal_at(1005, testing::bgp_midplane(0), ras::codes::kDdrController)},
      jobs);
  const MatchResult& result = front.matches;
  ASSERT_EQ(front.filtered.groups.size(), 2u);
  EXPECT_EQ(result.jobs_by_group[0], std::vector<std::size_t>{0});
  EXPECT_EQ(result.jobs_by_group[1], std::vector<std::size_t>{0});
  ASSERT_EQ(result.interruptions.size(), 1u);
  EXPECT_EQ(result.interruptions[0].group, 0u);
  EXPECT_EQ(result.group_by_job[0], 0);
}

TEST(MatchBranches, AJobNoGroupMatchedReadsMinusOne) {
  // group_by_job holds -1 for a clean run: a job on another midplane and a
  // job ending outside the window stay unclaimed next to a matched one.
  const auto jobs = make_jobs({
      job_on(1, 0, 1010, bgp::MidplaneId(0)),
      job_on(2, 0, 1010, bgp::MidplaneId(9)),  // outside the footprint
      job_on(3, 0, 5000, bgp::MidplaneId(0)),  // ends after the window
  });
  const auto front = front_end({fatal_at(1000, testing::bgp_midplane(0))}, jobs);
  ASSERT_EQ(front.filtered.groups.size(), 1u);
  EXPECT_EQ(front.matches.group_by_job, (std::vector<std::int32_t>{0, -1, -1}));
  EXPECT_EQ(matched_ids(front.matches, jobs), std::vector<std::int64_t>{1});
}

TEST(FilterPipelineBranches, CausalityDisabledSkipsTheStage) {
  const auto jobs = make_jobs({job_on(1, 0, 10, bgp::MidplaneId(3))});
  const auto front = front_end({fatal_at(0, testing::bgp_midplane(0)),
                                fatal_at(4000, testing::bgp_midplane(1))},
                               jobs, /*causality=*/false);
  const filter::FilterPipelineResult& result = front.filtered;
  ASSERT_EQ(result.stages.size(), 3u);  // raw, temporal, spatial — no causality
  EXPECT_EQ(result.stages[0].name, "raw FATAL records");
  EXPECT_EQ(result.stages[2].name, "spatial");
  EXPECT_TRUE(result.causal_pairs.empty());
}

}  // namespace
}  // namespace coral::core
