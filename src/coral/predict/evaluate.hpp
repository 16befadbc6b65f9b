#pragma once

#include "coral/predict/miner.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/synth/packs.hpp"
#include "coral/synth/scenario.hpp"

namespace coral::predict {

/// Ground-truth scoring of a prediction run. Both rates are computed against
/// the injector's truth, not against the log: a prediction is *true* when a
/// ground-truth system-failure manifestation lands inside its window and
/// zone, and the recall denominator is the set of truth interruptions whose
/// underlying fault the injector labelled SystemFailure (application errors
/// are not the predictor's job — Observation 1).
struct Evaluation {
  std::size_t predictions = 0;       ///< alarms issued
  std::size_t true_predictions = 0;  ///< alarms a manifestation fulfilled
  std::size_t events_total = 0;      ///< truth system-failure interruptions
  std::size_t events_caught = 0;     ///< ... covered by an earlier alarm
  double mean_lead_minutes = 0;      ///< alarm -> interruption, caught only

  double precision() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(true_predictions) /
                                  static_cast<double>(predictions);
  }
  double recall() const {
    return events_total == 0 ? 0.0
                             : static_cast<double>(events_caught) /
                                   static_cast<double>(events_total);
  }

  friend bool operator==(const Evaluation& a, const Evaluation& b) = default;
};

/// Join `predictions` against injector ground truth. Zone semantics match
/// the predictor's: machine-wide alarms cover everything; midplane alarms
/// cover faults whose location touches the midplane (rack-level locations
/// touch the whole rack). Deterministic: a pure function of its inputs.
Evaluation evaluate(const std::vector<Prediction>& predictions,
                    const synth::GroundTruth& truth, const machine::MachineModel& machine);

/// Outcome of the fault-aware-placement experiment: the same scenario run
/// twice, without and with a PredictionAdvisor steering placements away
/// from predicted-bad midplanes.
struct PolicyComparison {
  RuleTable rules;  ///< mined on the baseline run
  Evaluation eval;  ///< replay of the rules over the baseline log
  /// Node-hours of machine time lost to system-failure interruptions: the
  /// interrupted job's elapsed runtime (its work is gone — no checkpoints,
  /// §VII) plus the post-failure partition hold (cleanup/reboot before
  /// anything can boot there, ResubmitConfig::failure_hold), both times the
  /// partition's node count.
  double baseline_lost_node_hours = 0;
  double advised_lost_node_hours = 0;
  /// Truth system-failure interruption counts for the same two runs — the
  /// machine-health view of the same comparison (each interruption is a
  /// killed job and a requeue, whatever its node-hour price).
  std::size_t baseline_interruptions = 0;
  std::size_t advised_interruptions = 0;

  double saved_node_hours() const {
    return baseline_lost_node_hours - advised_lost_node_hours;
  }
};

/// Run the full mine -> predict -> act loop on one scenario: generate the
/// baseline, co-analyze it, mine rules, score them against ground truth,
/// then re-run the same scenario with a PredictionAdvisor attached and
/// compare lost node-hours. The advised run diverges from the baseline by
/// construction (placements change), which is the point.
PolicyComparison compare_policies(const synth::ScenarioConfig& config,
                                  const MinerConfig& miner = {}, const Context& ctx = {});

/// The seeded injector scenario the CI prediction-eval stage gates on: the
/// correlated_cascade pack on the reference BG/P, tilted toward persistent
/// faults (the predictable regime) and a small-uniform-job workload so the
/// policy comparison measures avoidance rather than placement roulette.
synth::ScenarioConfig eval_scenario(std::uint64_t seed = 42, int days = 21);

}  // namespace coral::predict
