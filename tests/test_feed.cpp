#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "coral/core/feed.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral::core {
namespace {

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(71, 7));
  return result;
}

TEST(EventFeed, DeliversEverythingInTimeOrder) {
  EventFeed feed(data().ras, data().jobs);
  std::size_t starts = 0, ends = 0, records = 0;
  TimePoint last(std::numeric_limits<Usec>::min());
  const auto check_time = [&last](TimePoint t) {
    EXPECT_GE(t, last);
    last = t;
  };
  feed.on_job_start([&](TimePoint t, const EventFeed::JobStart&) {
    check_time(t);
    ++starts;
  });
  feed.on_job_end([&](TimePoint t, const EventFeed::JobEnd&) {
    check_time(t);
    ++ends;
  });
  feed.on_ras([&](TimePoint t, const EventFeed::RasRecord&) {
    check_time(t);
    ++records;
  });
  const std::size_t delivered = feed.replay();
  EXPECT_EQ(starts, data().jobs.size());
  EXPECT_EQ(ends, data().jobs.size());
  EXPECT_EQ(records, data().ras.size());
  EXPECT_EQ(delivered, starts + ends + records);
}

TEST(EventFeed, SeverityFilterApplies) {
  EventFeed feed(data().ras, data().jobs);
  std::size_t fatals = 0;
  feed.on_ras(
      [&](TimePoint, const EventFeed::RasRecord& r) {
        EXPECT_EQ(r.event->severity, ras::Severity::Fatal);
        ++fatals;
      },
      ras::Severity::Fatal);
  feed.replay();
  EXPECT_EQ(fatals, data().ras.summary().fatal_records);
}

TEST(EventFeed, WindowedReplay) {
  const TimePoint begin = synth::small_scenario(71, 7).start + 2 * kUsecPerDay;
  const TimePoint end = begin + kUsecPerDay;
  EventFeed feed(data().ras, data().jobs);
  std::size_t n = 0;
  feed.on_ras([&](TimePoint t, const EventFeed::RasRecord&) {
    EXPECT_GE(t, begin);
    EXPECT_LT(t, end);
    ++n;
  });
  feed.replay(begin, end);
  EXPECT_GT(n, 0u);
  EXPECT_LT(n, data().ras.size());
}

TEST(EventFeed, OccupancyTrackingSeesKillsWhileJobRuns) {
  // A consumer that tracks running jobs must observe every FATAL record of
  // an interrupting event while the killed job is still in its running set:
  // the tie-break orders job starts < RAS records < job ends.
  EventFeed feed(data().ras, data().jobs);
  std::set<std::int64_t> running;
  std::size_t fatal_during_jobs = 0, fatal_total = 0;
  feed.on_job_start([&](TimePoint, const EventFeed::JobStart& e) {
    running.insert(e.job->job_id);
  });
  feed.on_job_end([&](TimePoint, const EventFeed::JobEnd& e) {
    running.erase(e.job->job_id);
  });
  feed.on_ras(
      [&](TimePoint, const EventFeed::RasRecord&) {
        ++fatal_total;
        if (!running.empty()) ++fatal_during_jobs;
      },
      ras::Severity::Fatal);
  feed.replay();
  EXPECT_GT(fatal_total, 0u);
  EXPECT_GT(fatal_during_jobs, 0u);
}

TEST(EventFeed, WindowedReplayPinsTieBreakOrder) {
  // The documented tie-break at a shared timestamp is: job starts, then RAS
  // records, then job ends. Build a pair where every RAS record collides
  // with a job transition and pin the exact delivery sequence.
  const TimePoint t0(1000), t1(3000), t2(5000);

  ras::RasLog ras_log;
  for (const TimePoint t : {t0, t1, t2}) {
    ras::RasEvent ev;
    ev.event_time = t;
    ev.location = testing::bgp_loc("R04-M0");
    ev.severity = ras::Severity::Fatal;
    ras_log.append(ev);
  }
  ras_log.finalize();

  joblog::JobLog jobs;
  joblog::JobRecord a;
  a.job_id = 1;
  a.exec_id = jobs.intern_exec("/bin/app");
  a.user_id = jobs.intern_user("user0");
  a.project_id = jobs.intern_project("proj0");
  a.queue_time = t0;
  a.start_time = t0;
  a.end_time = t1;
  a.partition = testing::bgp_part("R04-M0");
  joblog::JobRecord b = a;
  b.job_id = 2;
  b.start_time = t1;
  b.end_time = t2;
  jobs.append(a);
  jobs.append(b);
  jobs.finalize();

  std::vector<std::string> order;
  EventFeed feed(ras_log, jobs);
  feed.on_job_start([&](TimePoint, const EventFeed::JobStart& e) {
    order.push_back("start" + std::to_string(e.job->job_id));
  });
  feed.on_job_end([&](TimePoint, const EventFeed::JobEnd& e) {
    order.push_back("end" + std::to_string(e.job->job_id));
  });
  feed.on_ras([&](TimePoint t, const EventFeed::RasRecord&) {
    order.push_back("ras@" + std::to_string(t - t0));
  });

  const std::vector<std::string> expected{
      "start1", "ras@0", "start2", "ras@2000", "end1", "ras@4000", "end2"};
  feed.replay(t0, t2 + 1);
  EXPECT_EQ(order, expected);

  // The whole-pair replay applies the same tie-break.
  order.clear();
  feed.replay();
  EXPECT_EQ(order, expected);
}

TEST(EventFeed, NoHandlersIsEmptyReplay) {
  EventFeed feed(data().ras, data().jobs);
  EXPECT_EQ(feed.replay(), 0u);
}

}  // namespace
}  // namespace coral::core
