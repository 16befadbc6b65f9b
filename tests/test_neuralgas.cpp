#include <gtest/gtest.h>

#include "coral/common/error.hpp"
#include "coral/filter/neuralgas.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral {
namespace {

using stats::NeuralGas;
using stats::NeuralGasConfig;

std::vector<std::vector<double>> two_blobs(std::size_t n_per, Rng& rng) {
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < n_per; ++i) {
    points.push_back({rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)});
    points.push_back({rng.normal(5.0, 0.1), rng.normal(5.0, 0.1)});
  }
  return points;
}

TEST(NeuralGas, SeparatesTwoBlobs) {
  Rng rng(1);
  const auto points = two_blobs(200, rng);
  NeuralGasConfig config;
  config.units = 2;
  const NeuralGas ng = NeuralGas::train(points, config);
  // The two units land near the blob centers.
  const auto assignment = ng.assign(points);
  std::size_t unit_of_first = assignment[0];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bool first_blob = points[i][0] < 2.5;
    EXPECT_EQ(assignment[i] == unit_of_first, first_blob) << i;
  }
}

TEST(NeuralGas, MoreUnitsLowerQuantizationError) {
  Rng rng(2);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 600; ++i) points.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  NeuralGasConfig small;
  small.units = 2;
  NeuralGasConfig large;
  large.units = 32;
  const double qe_small = NeuralGas::train(points, small).quantization_error(points);
  const double qe_large = NeuralGas::train(points, large).quantization_error(points);
  EXPECT_LT(qe_large, qe_small * 0.5);
}

TEST(NeuralGas, DeterministicInSeed) {
  Rng rng(3);
  const auto points = two_blobs(100, rng);
  const NeuralGas a = NeuralGas::train(points, {});
  const NeuralGas b = NeuralGas::train(points, {});
  ASSERT_EQ(a.units().size(), b.units().size());
  for (std::size_t u = 0; u < a.units().size(); ++u) {
    for (std::size_t d = 0; d < a.units()[u].size(); ++d) {
      EXPECT_DOUBLE_EQ(a.units()[u][d], b.units()[u][d]);
    }
  }
}

TEST(NeuralGas, RejectsDegenerateInput) {
  EXPECT_THROW(NeuralGas::train(std::vector<std::vector<double>>{}, {}), InvalidArgument);
  const std::vector<std::vector<double>> ragged = {{1.0, 2.0}, {1.0}};
  EXPECT_THROW(NeuralGas::train(ragged, {}), InvalidArgument);
}

TEST(NeuralGas, FewerPointsThanUnitsWorks) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}, {2.0}};
  NeuralGasConfig config;
  config.units = 64;
  const NeuralGas ng = NeuralGas::train(points, config);
  EXPECT_EQ(ng.units().size(), 3u);
  EXPECT_LT(ng.quantization_error(points), 1.0);
}

TEST(NeuralGasFilter, GroupsPartitionTheInput) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(121, 14));
  const auto events = data.ras.fatal_events();
  const auto groups = filter::neural_gas_filter(events, {});
  std::vector<int> seen(events.size(), 0);
  for (const auto& g : groups) {
    EXPECT_EQ(g.members.front(), g.rep);
    for (std::size_t m : g.members) seen[m] += 1;
  }
  for (int n : seen) EXPECT_EQ(n, 1);
}

TEST(NeuralGasFilter, CompressesStormsSubstantially) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(122, 14));
  const auto events = data.ras.fatal_events();
  const auto groups = filter::neural_gas_filter(events, {});
  EXPECT_LT(groups.size(), events.size() / 5);
  // Within the same order of magnitude as the ground-truth fault count.
  EXPECT_LT(groups.size(), data.truth.faults.size() * 10);
  EXPECT_GT(groups.size() * 10, data.truth.faults.size());
}

TEST(NeuralGasFilter, ChainGapSplitsDistantRecords) {
  // Two bursts of the same code/location, a week apart: even if they land
  // in the same cluster they must split at the chain gap.
  std::vector<ras::RasEvent> events;
  const auto code = *ras::Catalog::instance().find(ras::codes::kRasStormFatal);
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 10; ++i) {
      ras::RasEvent ev;
      ev.errcode = code;
      ev.severity = ras::Severity::Fatal;
      ev.event_time = TimePoint::from_calendar(2009, 3, 1 + burst * 7) +
                      static_cast<Usec>(i) * 10 * kUsecPerSec;
      ev.location = testing::bgp_loc("R00-M0-N00-J04");
      events.push_back(ev);
    }
  }
  const auto groups = filter::neural_gas_filter(events, {});
  EXPECT_GE(groups.size(), 2u);
  EXPECT_LE(groups.size(), 4u);
  for (std::size_t i = 1; i < groups.size(); ++i) {
    EXPECT_LE(events[groups[i - 1].rep].event_time, events[groups[i].rep].event_time);
  }
}

TEST(NeuralGasFilter, EmptyInputGivesEmptyOutput) {
  EXPECT_TRUE(filter::neural_gas_filter({}, {}).empty());
}

}  // namespace
}  // namespace coral
