// Filter semantics (Fig. 1): the streaming temporal, spatial and causality
// stages on hand-placed records, and the whole filter chain of the front end
// on generated logs.
#include <gtest/gtest.h>

#include "coral/fault/storm.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/stream/coanalysis.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral::filter {
namespace {

using ras::Catalog;
using ras::RasEvent;
using stream::StreamGroup;

RasEvent make_event(const char* code, double t_sec, const char* where) {
  RasEvent ev;
  ev.errcode = *Catalog::instance().find(code);
  ev.severity = ras::Severity::Fatal;
  ev.event_time = TimePoint::from_calendar(2009, 3, 1) +
                  static_cast<Usec>(t_sec * kUsecPerSec);
  ev.location = bgp::Location::parse(where);
  return ev;
}

std::vector<RasEvent> sorted(std::vector<RasEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const RasEvent& a, const RasEvent& b) { return a.event_time < b.event_time; });
  return events;
}

/// Each record as its own group (the state before filtering), in order.
std::vector<StreamGroup> singletons(const std::vector<RasEvent>& events) {
  std::vector<StreamGroup> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.push_back(StreamGroup::single(i, events[i].event_time, events[i].errcode,
                                      events[i].location.packed()));
  }
  return out;
}

/// Run the records of `events` through one streaming stage built as
/// Stage(args..., members, sink); the output groups in whole-log form.
template <typename Stage, typename... Args>
std::vector<EventGroup> run_stage(const std::vector<RasEvent>& events, Args&&... args) {
  stream::MemberChain members(events.size());
  stream::GroupBuffer out;
  Stage stage(std::forward<Args>(args)..., members, &out);
  for (StreamGroup& g : singletons(events)) stage.on_group(std::move(g));
  stage.flush();
  std::vector<EventGroup> groups;
  for (const StreamGroup& g : out.groups) groups.push_back(members.to_event_group(g));
  return groups;
}

std::vector<EventGroup> temporal(const std::vector<RasEvent>& events) {
  return run_stage<stream::TemporalCoalescer>(events, TemporalFilterConfig{}.threshold);
}

std::vector<EventGroup> spatial(const std::vector<RasEvent>& events) {
  return run_stage<stream::SpatialCoalescer>(events, SpatialFilterConfig{}.threshold);
}

std::vector<CausalPair> mine(const std::vector<RasEvent>& events,
                             const CausalityFilterConfig& config) {
  stream::PairMiner miner(config.window);
  for (StreamGroup& g : singletons(events)) miner.on_group(std::move(g));
  return stream::PairMiner::accept(miner.counts(), config.min_support);
}

/// The front end's filter chain over a generated log.
FilterPipelineResult run_filters(const synth::SynthResult& data,
                                 const FilterPipelineConfig& config = {}) {
  stream::FrontEndConfig fe;
  fe.filters = config;
  return stream::run_streaming_frontend(data.ras, data.jobs, fe).filtered;
}

TEST(Groups, SingletonsAndMerge) {
  auto groups = singleton_groups(3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[1].rep, 1u);
  EXPECT_EQ(groups[1].members, std::vector<std::size_t>{1});
  merge_groups(groups[0], std::move(groups[2]));
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 2}));
}

TEST(Groups, CompressionRatio) {
  EXPECT_NEAR(compression_ratio(33370, 549), 0.9835, 0.0001);  // the paper's headline
  EXPECT_DOUBLE_EQ(compression_ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(compression_ratio(10, 10), 0.0);
}

TEST(Temporal, MergesSameCodeSameLocationWithinThreshold) {
  const auto events = sorted({
      make_event(ras::codes::kRasStormFatal, 0, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 100, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 250, "R00-M0-N00-J04"),
  });
  const auto groups = temporal(events);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(groups[0].rep, 0u);
}

TEST(Temporal, WindowRenewsAlongChains) {
  // 0, 250, 500, 750: each within 300 s of the previous -> one group, even
  // though 750 is far from 0.
  const auto events = sorted({
      make_event(ras::codes::kRasStormFatal, 0, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 250, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 500, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 750, "R00-M0-N00-J04"),
  });
  EXPECT_EQ(temporal(events).size(), 1u);
}

TEST(Temporal, DistinctLocationOrCodeNotMerged) {
  const auto events = sorted({
      make_event(ras::codes::kRasStormFatal, 0, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 10, "R00-M0-N00-J05"),  // other card
      make_event(ras::codes::kDdrController, 20, "R00-M0-N00-J04"),  // other code
  });
  EXPECT_EQ(temporal(events).size(), 3u);
}

TEST(Temporal, BeyondThresholdStartsNewGroup) {
  const auto events = sorted({
      make_event(ras::codes::kRasStormFatal, 0, "R00-M0-N00-J04"),
      make_event(ras::codes::kRasStormFatal, 301, "R00-M0-N00-J04"),
  });
  EXPECT_EQ(temporal(events).size(), 2u);
}

TEST(Spatial, MergesSameCodeAcrossLocations) {
  const auto events = sorted({
      make_event("_bgp_err_kernel_panic", 0, "R00-M0-N00-J04"),
      make_event("_bgp_err_kernel_panic", 50, "R07-M1-N09-J21"),
      make_event("_bgp_err_kernel_panic", 120, "R13-M0-N02-J30"),
  });
  const auto groups = spatial(events);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Spatial, DifferentCodesNotMerged) {
  const auto events = sorted({
      make_event("_bgp_err_kernel_panic", 0, "R00-M0-N00-J04"),
      make_event("_bgp_err_l2_array_fatal", 10, "R07-M1-N09-J21"),
  });
  EXPECT_EQ(spatial(events).size(), 2u);
}

TEST(Causality, MinesFrequentPairs) {
  std::vector<RasEvent> events;
  // 6 co-occurrences of storm->panic, 30 s apart each time, days apart.
  for (int i = 0; i < 6; ++i) {
    events.push_back(
        make_event(ras::codes::kRasStormFatal, i * 86400.0, "R00-M0-N00-J04"));
    events.push_back(
        make_event("_bgp_err_kernel_panic", i * 86400.0 + 30, "R00-M0-N00-J04"));
  }
  events = sorted(events);
  CausalityFilterConfig config;
  config.min_support = 5;
  const auto pairs = mine(events, config);
  ASSERT_EQ(pairs.size(), 1u);
  const auto filtered = run_stage<stream::CausalityCoalescer>(
      events, config.window, std::span<const CausalPair>(pairs));
  EXPECT_EQ(filtered.size(), 6u);  // each pair merged into one event
}

TEST(Causality, InfrequentPairsIgnored) {
  std::vector<RasEvent> events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(
        make_event(ras::codes::kRasStormFatal, i * 86400.0, "R00-M0-N00-J04"));
    events.push_back(
        make_event("_bgp_err_kernel_panic", i * 86400.0 + 30, "R00-M0-N00-J04"));
  }
  events = sorted(events);
  CausalityFilterConfig config;
  config.min_support = 5;
  EXPECT_TRUE(mine(events, config).empty());
}

TEST(Causality, SameCodeRepeatsAreNotPairs) {
  std::vector<RasEvent> events;
  for (int i = 0; i < 8; ++i) {
    events.push_back(make_event(ras::codes::kRasStormFatal, i * 86400.0, "R00-M0-N00-J04"));
    events.push_back(make_event(ras::codes::kRasStormFatal, i * 86400.0 + 30, "R01-M0-N00-J04"));
  }
  CausalityFilterConfig config;
  config.min_support = 5;
  EXPECT_TRUE(mine(sorted(events), config).empty());
}

TEST(Causality, MergesIntoMostRecentPartnerFirstCodeOnTies) {
  // Panic is paired with both the storm code and the DDR code. A panic after
  // both partners joins the more recent one; after a tie it joins the
  // partner with the smaller code.
  const auto storm = *Catalog::instance().find(ras::codes::kRasStormFatal);
  const auto ddr = *Catalog::instance().find(ras::codes::kDdrController);
  const auto panic = *Catalog::instance().find("_bgp_err_kernel_panic");
  const std::vector<CausalPair> pairs = {std::minmax(storm, panic), std::minmax(ddr, panic)};
  const auto run = [&](double storm_t, double ddr_t) {
    const auto events = sorted({make_event(ras::codes::kRasStormFatal, storm_t, "R00-M0"),
                                make_event(ras::codes::kDdrController, ddr_t, "R01-M0"),
                                make_event("_bgp_err_kernel_panic", 60, "R02-M0")});
    const auto groups = run_stage<stream::CausalityCoalescer>(
        events, CausalityFilterConfig{}.window, std::span<const CausalPair>(pairs));
    EXPECT_EQ(groups.size(), 2u);
    for (const EventGroup& g : groups) {
      if (g.members.size() > 1) return events[g.rep].errcode;
    }
    return ras::ErrcodeId{-1};
  };
  EXPECT_EQ(run(0, 10), ddr);    // DDR leader is the more recent
  EXPECT_EQ(run(10, 0), storm);  // storm leader is the more recent
  EXPECT_EQ(run(0, 0), std::min(storm, ddr));
}

TEST(Causality, PairsOutsideWindowNotCounted) {
  std::vector<RasEvent> events;
  for (int i = 0; i < 8; ++i) {
    events.push_back(
        make_event(ras::codes::kRasStormFatal, i * 86400.0, "R00-M0-N00-J04"));
    events.push_back(
        make_event("_bgp_err_kernel_panic", i * 86400.0 + 500, "R00-M0-N00-J04"));
  }
  events = sorted(events);
  CausalityFilterConfig config;  // window 120 s
  config.min_support = 5;
  EXPECT_TRUE(mine(events, config).empty());
}

TEST(Pipeline, GroupsPartitionTheInput) {
  const auto data = synth::generate(synth::small_scenario(21, 10));
  const auto result = run_filters(data);
  std::vector<int> seen(result.fatal_events.size(), 0);
  for (const auto& g : result.groups) {
    EXPECT_EQ(g.members.front(), g.rep);
    for (std::size_t m : g.members) {
      ASSERT_LT(m, seen.size());
      seen[m] += 1;
    }
  }
  for (int n : seen) EXPECT_EQ(n, 1);  // every record in exactly one group
}

TEST(Pipeline, GroupsOrderedByRepTime) {
  const auto data = synth::generate(synth::small_scenario(22, 10));
  const auto result = run_filters(data);
  for (std::size_t i = 1; i < result.groups.size(); ++i) {
    EXPECT_LE(result.fatal_events[result.groups[i - 1].rep].event_time,
              result.fatal_events[result.groups[i].rep].event_time);
  }
}

TEST(Pipeline, RepIsEarliestMember) {
  const auto data = synth::generate(synth::small_scenario(23, 10));
  const auto result = run_filters(data);
  for (const auto& g : result.groups) {
    for (std::size_t m : g.members) {
      EXPECT_LE(result.fatal_events[g.rep].event_time,
                result.fatal_events[m].event_time);
    }
  }
}

TEST(Pipeline, CompressionIsStrongOnSyntheticStorms) {
  const auto data = synth::generate(synth::small_scenario(24, 14));
  const auto result = run_filters(data);
  // The paper compresses 33,370 -> 549 (98.35%); storms dominate here too.
  EXPECT_GT(result.total_compression(), 0.90);
  // And the recovered event count should be near the generator's truth.
  const double truth = static_cast<double>(data.truth.faults.size());
  EXPECT_NEAR(static_cast<double>(result.groups.size()) / truth, 1.0, 0.30);
}

TEST(Pipeline, StagesAreMonotoneNonIncreasing) {
  const auto data = synth::generate(synth::small_scenario(25, 10));
  const auto result = run_filters(data);
  for (const auto& s : result.stages) {
    EXPECT_LE(s.output, s.input) << s.name;
  }
  ASSERT_GE(result.stages.size(), 4u);
  EXPECT_EQ(result.stages.back().output, result.groups.size());
}

TEST(Pipeline, CausalityCanBeDisabled) {
  const auto data = synth::generate(synth::small_scenario(26, 10));
  FilterPipelineConfig config;
  config.enable_causality = false;
  const auto result = run_filters(data, config);
  EXPECT_EQ(result.stages.size(), 3u);
  EXPECT_TRUE(result.causal_pairs.empty());
}

TEST(Pipeline, MinesGroundTruthCascadePairs) {
  const auto data = synth::generate(synth::small_scenario(27, 60));
  const auto result = run_filters(data);
  // The miner must discover pairs from the data alone, and every mined pair
  // must be one of the storm model's built-in cascade couplings (no
  // spurious pairs at the default support level).
  ASSERT_FALSE(result.causal_pairs.empty());
  for (const auto& [a, b] : result.causal_pairs) {
    const bool truth = fault::StormModel::cascade_partner(a) == b ||
                       fault::StormModel::cascade_partner(b) == a;
    EXPECT_TRUE(truth) << Catalog::instance().info(a).name << " <-> "
                       << Catalog::instance().info(b).name;
  }
}

TEST(Pipeline, IdempotentThresholdZero) {
  const auto data = synth::generate(synth::small_scenario(28, 7));
  FilterPipelineConfig config;
  config.temporal.threshold = 0;
  config.spatial.threshold = 0;
  config.enable_causality = false;
  const auto result = run_filters(data, config);
  // Zero thresholds merge only identical-timestamp records; output stays
  // close to the input count.
  EXPECT_GT(result.groups.size(), result.fatal_events.size() * 9 / 10);
}

}  // namespace
}  // namespace coral::filter
