// Tests for the §VII extension modules: failure-prediction replay and
// checkpoint-policy simulation.
#include <gtest/gtest.h>

#include "coral/common/error.hpp"
#include "coral/core/checkpoint.hpp"
#include "coral/core/prediction.hpp"
#include "coral/synth/intrepid.hpp"

namespace coral::core {
namespace {

struct Fixture {
  synth::SynthResult data;
  CoAnalysisResult r;
};

const Fixture& fx() {
  static const Fixture f = [] {
    Fixture out;
    out.data = synth::generate(synth::small_scenario(61, 60));
    out.r = run_coanalysis(out.data.ras, out.data.jobs);
    return out;
  }();
  return f;
}

TEST(Prediction, CountersAreConsistent) {
  const auto& [data, r] = fx();
  const auto outcome = evaluate_predictor(r, data.jobs, {});
  EXPECT_LE(outcome.true_alarms, outcome.alarms);
  EXPECT_LE(outcome.caught, outcome.total_interruptions);
  EXPECT_EQ(outcome.total_interruptions, r.interruption_count());
  EXPECT_GE(outcome.disturbed_node_hours, 0.0);
  EXPECT_LE(outcome.precision(), 1.0);
  EXPECT_LE(outcome.recall(), 1.0);
}

TEST(Prediction, PersistentFaultsMakeLocationAlarmsUseful) {
  const auto& [data, r] = fx();
  PredictorConfig config;
  config.horizon = 6 * kUsecPerHour;
  const auto outcome = evaluate_predictor(r, data.jobs, config);
  // Persistent-fault kill chains mean an alarm at the failed location does
  // predict future interruptions well above chance.
  EXPECT_GT(outcome.recall(), 0.10);
  EXPECT_GT(outcome.true_alarms, 0u);
}

TEST(Prediction, MachineWideAlarmsDisturbFarMoreWork) {
  const auto& [data, r] = fx();
  PredictorConfig local;
  PredictorConfig global;
  global.use_location = false;
  const auto a = evaluate_predictor(r, data.jobs, local);
  const auto b = evaluate_predictor(r, data.jobs, global);
  // Same alarms, but acting machine-wide touches much more healthy work —
  // the paper's argument for location-aware prediction (Obs. 7).
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_GT(b.disturbed_node_hours, 5.0 * a.disturbed_node_hours);
  // And machine-wide alarms cannot have lower recall.
  EXPECT_GE(b.recall(), a.recall());
}

TEST(Prediction, IdentificationFilterRemovesAlarms) {
  const auto& [data, r] = fx();
  PredictorConfig with;
  PredictorConfig without;
  without.use_identification = false;
  const auto a = evaluate_predictor(r, data.jobs, with);
  const auto b = evaluate_predictor(r, data.jobs, without);
  EXPECT_LT(a.alarms, b.alarms);  // benign codes dropped
}

TEST(Prediction, LongerHorizonCatchesMore) {
  const auto& [data, r] = fx();
  PredictorConfig short_h;
  short_h.horizon = kUsecPerHour;
  PredictorConfig long_h;
  long_h.horizon = 12 * kUsecPerHour;
  EXPECT_LE(evaluate_predictor(r, data.jobs, short_h).caught,
            evaluate_predictor(r, data.jobs, long_h).caught);
}

TEST(Checkpoint, YoungIntervalFormula) {
  // sqrt(2 * 300 s * 30000 s) = sqrt(1.8e7) ~ 4243 s.
  const Usec interval = young_interval(300 * kUsecPerSec, 30000.0);
  EXPECT_NEAR(static_cast<double>(interval) / kUsecPerSec, 4242.6, 1.0);
  EXPECT_THROW(young_interval(0, 100.0), InvalidArgument);
}

TEST(Checkpoint, NoCheckpointingLosesWholeRuns) {
  const auto& [data, r] = fx();
  CheckpointPlan plan;
  plan.mode = CheckpointMode::None;
  const auto outcome = simulate_checkpointing(r, data.jobs, plan);
  EXPECT_EQ(outcome.checkpoints, 0u);
  EXPECT_EQ(outcome.overhead_node_hours, 0.0);
  // Every interrupted job loses its entire runtime.
  double expect = 0;
  for (std::size_t j = 0; j < data.jobs.size(); ++j) {
    if (r.matches.group_by_job[j] < 0) continue;
    expect += data.jobs[j].size_midplanes() *
              static_cast<double>(data.jobs[j].runtime()) / kUsecPerHour;
  }
  EXPECT_NEAR(outcome.lost_node_hours, expect, 1e-6);
}

TEST(Checkpoint, FrequentCheckpointsTradeLossForOverhead) {
  const auto& [data, r] = fx();
  CheckpointPlan frequent;
  frequent.mode = CheckpointMode::FixedInterval;
  frequent.interval = 10 * kUsecPerMin;
  CheckpointPlan rare;
  rare.mode = CheckpointMode::FixedInterval;
  rare.interval = 12 * kUsecPerHour;
  const auto a = simulate_checkpointing(r, data.jobs, frequent);
  const auto b = simulate_checkpointing(r, data.jobs, rare);
  EXPECT_LT(a.lost_node_hours, b.lost_node_hours);
  EXPECT_GT(a.overhead_node_hours, b.overhead_node_hours);
}

TEST(Checkpoint, YoungBeatsNaiveExtremes) {
  const auto& [data, r] = fx();
  CheckpointPlan young;
  young.mode = CheckpointMode::YoungFromMtti;
  CheckpointPlan none;
  none.mode = CheckpointMode::None;
  CheckpointPlan manic;
  manic.mode = CheckpointMode::FixedInterval;
  manic.interval = 5 * kUsecPerMin;
  const auto w_young = simulate_checkpointing(r, data.jobs, young).total_waste();
  EXPECT_LT(w_young, simulate_checkpointing(r, data.jobs, none).total_waste());
  EXPECT_LT(w_young, simulate_checkpointing(r, data.jobs, manic).total_waste());
}

TEST(Checkpoint, SkipFirstHourReducesOverheadOnFlaggedJobs) {
  const auto& [data, r] = fx();
  CheckpointPlan young;
  young.mode = CheckpointMode::YoungFromMtti;
  CheckpointPlan skip;
  skip.mode = CheckpointMode::YoungSkipFirstHour;
  const auto a = simulate_checkpointing(r, data.jobs, young);
  const auto b = simulate_checkpointing(r, data.jobs, skip);
  if (b.skipped_first_hour_jobs == 0) GTEST_SKIP() << "no flagged executables";
  EXPECT_LE(b.checkpoints, a.checkpoints);
  EXPECT_LE(b.overhead_node_hours, a.overhead_node_hours);
}

}  // namespace
}  // namespace coral::core
