#include <gtest/gtest.h>

#include <map>
#include <set>

#include "coral/fault/process.hpp"
#include "coral/fault/storm.hpp"

#include "bgp_fixture.hpp"

namespace coral::fault {
namespace {

using ras::Catalog;
using ras::FaultNature;
using ras::JobImpact;

FaultConfig test_config() {
  FaultConfig c;
  c.interrupting_rate_per_day = 2.0;
  c.persistent_rate_per_day = 0.5;
  c.idle_rate_per_day = 2.0;
  c.benign_rate_per_day = 1.0;
  return c;
}

OccupancyView all_idle() {
  return {[](bgp::MidplaneId) { return false; }, [](bgp::MidplaneId) { return 0.0; }};
}

TEST(FaultProcess, IdleMachineStillGetsLocations) {
  SystemFaultProcess proc(test_config(), Rng(99));
  Trigger trig;
  trig.cls = TriggerClass::Interrupting;
  trig.code = Catalog::instance().fatal_ids()[10];
  const auto loc = proc.choose_location(trig, all_idle());
  ASSERT_TRUE(loc.has_value());  // base weight covers the idle machine
}

TEST(FaultProcess, TriggersAreTimeOrderedAndBounded) {
  SystemFaultProcess proc(test_config(), Rng(1));
  const TimePoint start = TimePoint::from_calendar(2009, 1, 5);
  const TimePoint end = start + 30 * kUsecPerDay;
  TimePoint prev = start;
  int count = 0;
  while (auto trig = proc.next(prev, end)) {
    EXPECT_GT(trig->time, prev);
    EXPECT_LT(trig->time, end);
    prev = trig->time;
    ++count;
  }
  // ~5.5 triggers/day nominal; clustering makes the effective rate higher.
  EXPECT_GT(count, 60);
  EXPECT_LT(count, 1200);
}

TEST(FaultProcess, TriggerCountScalesWithRate) {
  const TimePoint start = TimePoint::from_calendar(2009, 1, 5);
  const TimePoint end = start + 60 * kUsecPerDay;
  int counts[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    FaultConfig c = test_config();
    if (i == 1) {
      c.interrupting_rate_per_day *= 4;
      c.idle_rate_per_day *= 4;
      c.benign_rate_per_day *= 4;
      c.persistent_rate_per_day *= 4;
    }
    SystemFaultProcess proc(c, Rng(2));
    TimePoint t = start;
    while (auto trig = proc.next(t, end)) {
      t = trig->time;
      ++counts[i];
    }
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 4.0, 1.2);
}

TEST(FaultProcess, ClassesMatchCatalogGroundTruth) {
  SystemFaultProcess proc(test_config(), Rng(3));
  const TimePoint start = TimePoint::from_calendar(2009, 1, 5);
  const TimePoint end = start + 120 * kUsecPerDay;
  TimePoint t = start;
  const Catalog& cat = Catalog::instance();
  while (auto trig = proc.next(t, end)) {
    t = trig->time;
    const auto& info = cat.info(trig->code);
    EXPECT_NE(info.nature, FaultNature::ApplicationError) << info.name;
    switch (trig->cls) {
      case TriggerClass::Benign:
        EXPECT_EQ(info.impact, JobImpact::Benign);
        break;
      case TriggerClass::IdleHardware:
        EXPECT_TRUE(info.idle_bias);
        break;
      case TriggerClass::Persistent:
        EXPECT_TRUE(info.persistent);
        break;
      case TriggerClass::Interrupting:
        EXPECT_FALSE(info.persistent);
        EXPECT_FALSE(info.idle_bias);
        EXPECT_EQ(info.impact, JobImpact::Interrupting);
        break;
    }
  }
}

TEST(FaultProcess, IdleTriggersAvoidBusyMidplanes) {
  SystemFaultProcess proc(test_config(), Rng(4));
  // Midplanes 0..39 busy, 40..79 idle.
  const OccupancyView view{[](bgp::MidplaneId m) { return m < 40; },
                           [](bgp::MidplaneId) { return 0.0; }};
  const Catalog& cat = Catalog::instance();
  for (int i = 0; i < 200; ++i) {
    Trigger trig;
    trig.cls = TriggerClass::IdleHardware;
    // Pick any idle-biased code.
    for (auto id : cat.fatal_ids()) {
      if (cat.info(id).idle_bias) {
        trig.code = id;
        break;
      }
    }
    const auto loc = proc.choose_location(trig, view);
    ASSERT_TRUE(loc.has_value());
    const auto mid = testing::bgp_midplane_of(*loc);
    if (mid) {
      EXPECT_GE(*mid, 40);
    } else {
      EXPECT_GE(loc->rack_index(), 20);
    }
  }
}

TEST(FaultProcess, IdleTriggerDroppedOnFullMachine) {
  SystemFaultProcess proc(test_config(), Rng(5));
  const OccupancyView view{[](bgp::MidplaneId) { return true; },
                           [](bgp::MidplaneId) { return 0.0; }};
  Trigger trig;
  trig.cls = TriggerClass::IdleHardware;
  trig.code = Catalog::instance().fatal_ids()[0];
  for (auto id : Catalog::instance().fatal_ids()) {
    if (Catalog::instance().info(id).idle_bias) {
      trig.code = id;
      break;
    }
  }
  EXPECT_FALSE(proc.choose_location(trig, view).has_value());
}

TEST(FaultProcess, InterruptingTriggersPreferWideMidplanes) {
  FaultConfig config = test_config();
  config.wide_boost_per_hour = 5.0;
  SystemFaultProcess proc(config, Rng(6));
  // Midplanes 32..63 carry 10 hours of recent wide exposure; all busy.
  const OccupancyView view{
      [](bgp::MidplaneId) { return true; },
      [](bgp::MidplaneId m) { return m >= 32 && m < 64 ? 10.0 : 0.0; }};
  const Catalog& cat = Catalog::instance();
  Trigger trig;
  trig.cls = TriggerClass::Interrupting;
  for (auto id : cat.fatal_ids()) {
    const auto& info = cat.info(id);
    if (!info.idle_bias && !info.persistent && info.impact == JobImpact::Interrupting &&
        info.nature == FaultNature::SystemFailure) {
      trig.code = id;
      break;
    }
  }
  int in_region = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const auto loc = proc.choose_location(trig, view);
    ASSERT_TRUE(loc.has_value());
    const auto mid = testing::bgp_midplane_of(*loc);
    if (mid && *mid >= 32 && *mid < 64) ++in_region;
  }
  EXPECT_GT(in_region, n * 3 / 5);  // strongly biased toward the wide region
}

TEST(FaultProcess, RepairTimesPositiveAndCapped) {
  FaultConfig config = test_config();
  config.repair_mean_hours = 4.0;
  SystemFaultProcess proc(config, Rng(7));
  for (int i = 0; i < 1000; ++i) {
    const Usec r = proc.sample_repair_time();
    EXPECT_GT(r, 0);
    EXPECT_LE(r, static_cast<Usec>(2.5 * 4.0 * kUsecPerHour));
  }
}

TEST(Storm, PrimaryRecordAlwaysEmitted) {
  StormModel storm(StormConfig{});
  Rng rng(8);
  Manifestation m;
  m.time = TimePoint::from_calendar(2009, 2, 1);
  m.code = *Catalog::instance().find(ras::codes::kRasStormFatal);
  m.location = testing::bgp_loc("R05-M1-N03-J07");
  m.truth_tag = 42;
  std::vector<TaggedEvent> out;
  storm.expand(m, rng, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].event.event_time, m.time);
  EXPECT_EQ(out[0].event.location, m.location);
  EXPECT_EQ(out[0].event.errcode, m.code);
  for (const auto& te : out) EXPECT_EQ(te.truth_tag, 42);
}

TEST(Storm, JobHitFansOutAcrossPartition) {
  StormConfig config;
  config.spatial_nodes_mean = 20;
  StormModel storm(config);
  Rng rng(9);
  Manifestation m;
  m.time = TimePoint::from_calendar(2009, 2, 1);
  m.code = *Catalog::instance().find("_bgp_err_kernel_panic");
  m.location = testing::bgp_loc("R08-M0-N00-J04");
  m.job_partition = testing::bgp_part("R08-R11");
  m.truth_tag = 1;
  std::vector<TaggedEvent> out;
  storm.expand(m, rng, out);
  EXPECT_GT(out.size(), 10u);
  std::set<std::uint32_t> locations;
  for (const auto& te : out) {
    locations.insert(te.event.location.packed());
    // Every record lands within the job's partition footprint.
    const auto mid = testing::bgp_midplane_of(te.event.location);
    ASSERT_TRUE(mid.has_value());
    EXPECT_TRUE(m.job_partition->contains(*mid));
  }
  EXPECT_GT(locations.size(), 5u);  // genuinely spread across nodes
}

TEST(Storm, RecordsStayWithinTemporalWindow) {
  StormConfig config;
  StormModel storm(config);
  Rng rng(10);
  Manifestation m;
  m.time = TimePoint::from_calendar(2009, 2, 1);
  m.code = *Catalog::instance().find("_bgp_err_l2_array_fatal");
  m.location = testing::bgp_loc("R01-M0-N01-J05");
  m.job_partition = testing::bgp_part("R01-M0");
  std::vector<TaggedEvent> out;
  storm.expand(m, rng, out);
  for (const auto& te : out) {
    EXPECT_GE(te.event.event_time, m.time);
    EXPECT_LE(te.event.event_time - m.time, 2 * config.temporal_window + 5 * kUsecPerSec);
  }
}

TEST(Storm, CascadePartnerTableIsConsistent) {
  const Catalog& cat = Catalog::instance();
  int pairs = 0;
  for (ras::ErrcodeId id : cat.fatal_ids()) {
    if (const auto partner = StormModel::cascade_partner(id)) {
      ++pairs;
      EXPECT_NE(*partner, id);
      EXPECT_EQ(cat.info(*partner).severity, ras::Severity::Fatal);
    }
  }
  EXPECT_GE(pairs, 4);
}

TEST(Storm, CascadeEmitsPartnerCode) {
  StormConfig config;
  config.cascade_prob = 1.0;
  StormModel storm(config);
  Rng rng(11);
  Manifestation m;
  m.time = TimePoint::from_calendar(2009, 2, 1);
  m.code = *Catalog::instance().find(ras::codes::kRasStormFatal);
  m.location = testing::bgp_loc("R02-M1-N09-J20");
  std::vector<TaggedEvent> out;
  storm.expand(m, rng, out);
  const auto partner = StormModel::cascade_partner(m.code);
  ASSERT_TRUE(partner.has_value());
  bool saw_partner = false;
  for (const auto& te : out) saw_partner |= te.event.errcode == *partner;
  EXPECT_TRUE(saw_partner);
}

TEST(Storm, IdleFaultEmitsNoPartitionFanout) {
  StormModel storm(StormConfig{});
  Rng rng(12);
  Manifestation m;
  m.time = TimePoint::from_calendar(2009, 2, 1);
  m.code = *Catalog::instance().find("diags_lattice_fail_00");
  m.location = testing::bgp_loc("R30-M1-N02");
  std::vector<TaggedEvent> out;
  storm.expand(m, rng, out);
  for (const auto& te : out) {
    EXPECT_EQ(te.event.location, m.location);  // no job partition -> no fan-out
  }
}

}  // namespace
}  // namespace coral::fault
