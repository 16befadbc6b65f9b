// Tests for the adaptive-threshold filter baseline and the bootstrap CIs.
#include <gtest/gtest.h>

#include "coral/common/error.hpp"
#include "coral/filter/adaptive.hpp"
#include "coral/stats/bootstrap.hpp"
#include "coral/stats/descriptive.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral {
namespace {

using filter::AdaptiveFilterConfig;
using filter::AdaptiveThresholds;
using ras::Catalog;
using ras::RasEvent;

RasEvent make_event(const char* code, double t_sec, const char* where) {
  RasEvent ev;
  ev.errcode = *Catalog::instance().find(code);
  ev.severity = ras::Severity::Fatal;
  ev.event_time =
      TimePoint::from_calendar(2009, 3, 1) + static_cast<Usec>(t_sec * kUsecPerSec);
  ev.location = testing::bgp_loc(where);
  return ev;
}

TEST(AdaptiveFilter, LearnsKneeFromBimodalGaps) {
  // Storm gaps ~20 s, independent-event gaps ~1 day: the knee is obvious.
  std::vector<RasEvent> events;
  for (int burst = 0; burst < 6; ++burst) {
    const double t0 = burst * 86400.0;
    for (int i = 0; i < 5; ++i) {
      events.push_back(
          make_event(ras::codes::kRasStormFatal, t0 + i * 20.0, "R00-M0-N00-J04"));
    }
  }
  const auto thresholds = filter::learn_adaptive_thresholds(events, {});
  const auto code = *Catalog::instance().find(ras::codes::kRasStormFatal);
  ASSERT_TRUE(thresholds.by_code.count(code));
  const double t_sec =
      static_cast<double>(thresholds.by_code.at(code)) / static_cast<double>(kUsecPerSec);
  EXPECT_GT(t_sec, 20.0);    // above the storm gap
  EXPECT_LT(t_sec, 7200.0);  // clamped well below the day gap
}

TEST(AdaptiveFilter, FallsBackWithTooFewSamples) {
  std::vector<RasEvent> events = {
      make_event(ras::codes::kDdrController, 0, "R00-M0-N04"),
      make_event(ras::codes::kDdrController, 100, "R00-M0-N04"),
  };
  AdaptiveFilterConfig config;
  config.min_samples = 8;
  const auto thresholds = filter::learn_adaptive_thresholds(events, config);
  EXPECT_TRUE(thresholds.by_code.empty());
  EXPECT_EQ(thresholds.threshold_for(events[0].errcode), config.fallback);
}

TEST(AdaptiveFilter, FiltersLikeConstantOnLearnedCode) {
  std::vector<RasEvent> events;
  for (int burst = 0; burst < 6; ++burst) {
    const double t0 = burst * 86400.0;
    for (int i = 0; i < 5; ++i) {
      events.push_back(
          make_event(ras::codes::kRasStormFatal, t0 + i * 20.0, "R00-M0-N00-J04"));
    }
  }
  const auto thresholds = filter::learn_adaptive_thresholds(events, {});
  const auto groups = filter::adaptive_temporal_filter(
      events, filter::singleton_groups(events.size()), thresholds);
  EXPECT_EQ(groups.size(), 6u);  // one group per burst
}

TEST(AdaptiveFilter, EndToEndOnSyntheticLog) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(91, 21));
  const auto events = data.ras.fatal_events();
  const auto thresholds = filter::learn_adaptive_thresholds(events, {});
  EXPECT_GT(thresholds.by_code.size(), 3u);  // storms produce clear knees
  const auto adaptive = filter::adaptive_temporal_filter(
      events, filter::singleton_groups(events.size()), thresholds);
  stream::MemberChain members(events.size());
  stream::GroupBuffer constant;
  stream::TemporalCoalescer temporal(filter::TemporalFilterConfig{}.threshold, members,
                                     &constant);
  for (std::size_t i = 0; i < events.size(); ++i) {
    temporal.on_group(stream::StreamGroup::single(i, events[i].event_time, events[i].errcode,
                                                  events[i].location.packed()));
  }
  temporal.flush();
  // The two temporal filters should land in the same ballpark.
  const double ratio = static_cast<double>(adaptive.size()) /
                       static_cast<double>(constant.groups.size());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Bootstrap, MeanCiCoversTruth) {
  Rng rng(5);
  std::vector<double> xs(500);
  for (double& x : xs) x = rng.normal(10.0, 2.0);
  const auto ci = stats::bootstrap_ci(
      xs, [](std::span<const double> s) { return stats::mean(s); }, {});
  EXPECT_NEAR(ci.point, 10.0, 0.4);
  EXPECT_TRUE(ci.contains(ci.point));
  EXPECT_LT(ci.lo, ci.hi);
  EXPECT_TRUE(ci.contains(10.0));
  // Interval width ~ 2*1.96*sigma/sqrt(n) ~ 0.35.
  EXPECT_LT(ci.hi - ci.lo, 0.8);
}

TEST(Bootstrap, DeterministicInSeed) {
  Rng rng(6);
  std::vector<double> xs(100);
  for (double& x : xs) x = rng.exponential(5.0);
  const auto a = stats::bootstrap_ci(
      xs, [](std::span<const double> s) { return stats::mean(s); }, {});
  const auto b = stats::bootstrap_ci(
      xs, [](std::span<const double> s) { return stats::mean(s); }, {});
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, WeibullShapeCiCoversTruth) {
  Rng rng(7);
  std::vector<double> xs(800);
  for (double& x : xs) x = rng.weibull(0.5, 1000.0);
  const auto ci = stats::bootstrap_weibull_shape(xs);
  EXPECT_TRUE(ci.contains(0.5)) << "[" << ci.lo << ", " << ci.hi << "]";
  EXPECT_LT(ci.hi, 1.0);  // shape < 1 with confidence: the Table IV claim
}

TEST(Bootstrap, RejectsDegenerateInputs) {
  const std::vector<double> xs = {1.0, 2.0};
  stats::BootstrapConfig bad;
  bad.resamples = 3;
  EXPECT_THROW(stats::bootstrap_ci(
                   xs, [](std::span<const double> s) { return stats::mean(s); }, bad),
               InvalidArgument);
  EXPECT_THROW(stats::bootstrap_ci(std::vector<double>{},
                                   [](std::span<const double>) { return 0.0; }, {}),
               InvalidArgument);
}

}  // namespace
}  // namespace coral
