// Hardening tests: degenerate scenarios, fuzzed parsers, extreme configs.
#include <gtest/gtest.h>

#include "coral/common/error.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

#include "bgp_fixture.hpp"

namespace coral {
namespace {

TEST(Robustness, ZeroFaultScenarioProducesCleanLogs) {
  synth::ScenarioConfig config = synth::small_scenario(141, 7);
  config.faults.interrupting_rate_per_day = 0;
  config.faults.persistent_rate_per_day = 0;
  config.faults.idle_rate_per_day = 0;
  config.faults.benign_rate_per_day = 0;
  config.workload.buggy_app_prob = 0;
  const synth::SynthResult data = synth::generate(config);

  EXPECT_TRUE(data.truth.faults.empty());
  EXPECT_TRUE(data.truth.interruptions.empty());
  EXPECT_EQ(data.ras.summary().fatal_records, 0u);
  EXPECT_GT(data.jobs.size(), 100u);  // the machine still runs jobs
  for (const auto& job : data.jobs) EXPECT_EQ(job.exit_code, 0);

  // The analysis degrades gracefully on a clean log.
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_TRUE(r.filtered.groups.empty());
  EXPECT_EQ(r.interruption_count(), 0u);
  EXPECT_TRUE(r.interruptions_per_day.size() <= 8u);
}

TEST(Robustness, ExtremeFaultRateStillTerminates) {
  synth::ScenarioConfig config = synth::small_scenario(142, 3);
  config.faults.interrupting_rate_per_day = 40;
  config.faults.persistent_rate_per_day = 5;
  config.faults.idle_rate_per_day = 40;
  config.faults.benign_rate_per_day = 20;
  const synth::SynthResult data = synth::generate(config);
  EXPECT_GT(data.truth.faults.size(), 100u);
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_GT(r.filtered.groups.size(), 20u);
  // Bookkeeping still consistent under stress.
  EXPECT_EQ(r.system_interruptions + r.application_interruptions, r.interruption_count());
}

TEST(Robustness, OneDayScenario) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(143, 1));
  EXPECT_GT(data.jobs.size(), 10u);
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_LE(r.interruptions_per_day.size(), 2u);
}

TEST(Robustness, AllBuggyWorkload) {
  synth::ScenarioConfig config = synth::small_scenario(144, 5);
  config.workload.buggy_app_prob = 1.0;
  config.workload.bug_difficulty_min = 0.9;
  config.workload.bug_difficulty_max = 0.95;
  const synth::SynthResult data = synth::generate(config);
  // Most interruptions are application errors now.
  std::size_t app = 0;
  for (const auto& in : data.truth.interruptions) {
    app += ras::Catalog::instance().info(in.code).nature ==
                   ras::FaultNature::ApplicationError
               ? 1
               : 0;
  }
  EXPECT_GT(app * 2, data.truth.interruptions.size());
  EXPECT_GT(app, 50u);
}

TEST(Robustness, LocationParserFuzz) {
  // Random strings must either parse to something that round-trips, or
  // throw ParseError — never crash or mangle.
  Rng rng(145);
  const std::string alphabet = "RML0123456789-NJSIX";
  for (int i = 0; i < 5000; ++i) {
    std::string s;
    const auto len = rng.uniform_index(12);
    for (std::size_t c = 0; c < len; ++c) {
      s += alphabet[rng.uniform_index(alphabet.size())];
    }
    try {
      const bgp::Location loc = testing::bgp_loc(s);
      const bgp::Location again = testing::bgp_loc(loc.to_string());
      EXPECT_EQ(loc, again) << s;
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(Robustness, PartitionParserFuzz) {
  Rng rng(146);
  const std::string alphabet = "RM0123456789-";
  for (int i = 0; i < 5000; ++i) {
    std::string s;
    const auto len = rng.uniform_index(10);
    for (std::size_t c = 0; c < len; ++c) {
      s += alphabet[rng.uniform_index(alphabet.size())];
    }
    try {
      const bgp::Partition p = testing::bgp_part(s);
      EXPECT_EQ(testing::bgp_part(machine::bgp_model().partition_name(p)), p) << s;
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(Robustness, RasCsvFuzzedRowsRejected) {
  // Mutate a valid CSV by truncating rows; the parser must throw, not crash.
  const synth::SynthResult data = synth::generate(synth::small_scenario(147, 2));
  std::ostringstream out;
  data.ras.write_csv(out);
  const std::string csv = out.str();
  Rng rng(148);
  for (int i = 0; i < 20; ++i) {
    std::string cut = csv.substr(0, csv.size() / 2 + rng.uniform_index(csv.size() / 4));
    std::istringstream in(cut);
    try {
      const auto log = ras::RasLog::read_csv(in);
      EXPECT_LE(log.size(), data.ras.size());  // prefix parse is acceptable
    } catch (const ParseError&) {
      // fine
    }
  }
}

TEST(Robustness, MatchingWindowZero) {
  const synth::SynthResult data = synth::generate(synth::small_scenario(149, 7));
  core::CoAnalysisConfig config;
  config.matching.window = 0;
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs, config);
  // Zero window still matches the exact-time kills the generator produces.
  EXPECT_GE(r.interruption_count(), 0u);
}

}  // namespace
}  // namespace coral
