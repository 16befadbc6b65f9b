// The data-parallel stages must produce bit-identical results with and
// without a worker pool, at any thread count.
#include <gtest/gtest.h>

#include "coral/core/pipeline.hpp"
#include "coral/stream/coanalysis.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral {
namespace {

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::small_scenario(51, 30));
  return result;
}

class ParallelAnalysisP : public ::testing::TestWithParam<std::size_t> {};

/// The streaming front end cut into up to four time shards, run on a pool of
/// the parameter's width.
stream::FrontEndResult sharded_front_end(par::ThreadPool& pool) {
  stream::FrontEndConfig config;
  config.shards = 4;
  return stream::run_streaming_frontend(data().ras, data().jobs, config,
                                        Context().with_pool(&pool));
}

TEST_P(ParallelAnalysisP, MatchingIdenticalToSerial) {
  const auto serial = stream::run_streaming_frontend(data().ras, data().jobs, {}).matches;

  par::ThreadPool pool(GetParam());
  const auto front = sharded_front_end(pool);
  EXPECT_GE(front.shards_used, 2u);
  const core::MatchResult& parallel = front.matches;

  ASSERT_EQ(serial.interruptions.size(), parallel.interruptions.size());
  for (std::size_t i = 0; i < serial.interruptions.size(); ++i) {
    EXPECT_EQ(serial.interruptions[i].group, parallel.interruptions[i].group);
    EXPECT_EQ(serial.interruptions[i].job, parallel.interruptions[i].job);
  }
  EXPECT_EQ(serial.jobs_by_group, parallel.jobs_by_group);
  EXPECT_EQ(serial.group_by_job, parallel.group_by_job);
}

TEST_P(ParallelAnalysisP, CausalityMiningIdenticalToSerial) {
  // Pair counts are mined per shard and merged before min-support applies.
  const auto serial =
      stream::run_streaming_frontend(data().ras, data().jobs, {}).filtered.causal_pairs;
  ASSERT_FALSE(serial.empty());

  par::ThreadPool pool(GetParam());
  EXPECT_EQ(serial, sharded_front_end(pool).filtered.causal_pairs);
}

TEST_P(ParallelAnalysisP, FullPipelineIdenticalToSerial) {
  const auto serial = core::run_coanalysis(data().ras, data().jobs, {});

  par::ThreadPool pool(GetParam());
  const auto parallel = core::run_coanalysis(data().ras, data().jobs, {},
                                             Context().with_pool(&pool));

  EXPECT_EQ(serial.filtered.groups.size(), parallel.filtered.groups.size());
  EXPECT_EQ(serial.matches.interruptions.size(), parallel.matches.interruptions.size());
  EXPECT_EQ(serial.system_interruptions, parallel.system_interruptions);
  EXPECT_EQ(serial.application_interruptions, parallel.application_interruptions);
  EXPECT_EQ(serial.job_filter.removed_count(), parallel.job_filter.removed_count());
  EXPECT_DOUBLE_EQ(serial.fatal_before_jobfilter.weibull.shape(),
                   parallel.fatal_before_jobfilter.weibull.shape());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelAnalysisP, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace coral
