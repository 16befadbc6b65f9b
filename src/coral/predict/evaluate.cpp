#include "coral/predict/evaluate.hpp"

#include <algorithm>
#include <unordered_map>

#include "coral/core/pipeline.hpp"

namespace coral::predict {

namespace {

/// One ground-truth system-failure manifestation, time-ordered.
struct Manifestation {
  TimePoint time;
  std::uint32_t loc_key = 0;
};

/// Machine time lost to system-failure interruptions, in node-hours, plus
/// the interruption count. Every truth interruption whose fault the
/// injector labelled SystemFailure wastes its job's whole elapsed run (the
/// paper's no-checkpoint accounting) and then holds the partition for
/// post-failure cleanup/reboot (`hold`) before anything can boot there.
struct LostWork {
  double node_hours = 0;
  std::size_t interruptions = 0;
};

LostWork lost_work(const synth::GroundTruth& truth, const joblog::JobLog& jobs,
                   const machine::MachineModel& machine, Usec hold) {
  std::unordered_map<std::int64_t, const joblog::JobRecord*> by_id;
  by_id.reserve(jobs.size());
  for (const auto& j : jobs.jobs()) by_id.emplace(j.job_id, &j);
  const double nodes_per_midplane = machine.topology().nodes_per_midplane;
  LostWork out;
  for (const auto& intr : truth.interruptions) {
    const auto fi = static_cast<std::size_t>(intr.fault_instance);
    if (intr.fault_instance < 0 || fi >= truth.faults.size()) continue;
    if (truth.faults[fi].nature != ras::FaultNature::SystemFailure) continue;
    ++out.interruptions;
    const auto it = by_id.find(intr.job_id);
    if (it == by_id.end()) continue;
    const joblog::JobRecord& job = *it->second;
    out.node_hours += static_cast<double>(job.runtime() + hold) /
                      static_cast<double>(kUsecPerHour) *
                      static_cast<double>(job.size_midplanes()) * nodes_per_midplane;
  }
  return out;
}

}  // namespace

Evaluation evaluate(const std::vector<Prediction>& predictions, const RuleTable& table,
                    const synth::GroundTruth& truth,
                    const machine::MachineModel& machine) {
  (void)table;  // reserved: per-rule breakdowns would resolve through it
  const machine::LocCodec& codec = machine.codec();

  std::vector<Manifestation> manifest;
  manifest.reserve(truth.faults.size());
  for (const auto& f : truth.faults) {
    if (f.nature != ras::FaultNature::SystemFailure) continue;
    manifest.push_back({f.time, f.location.packed()});
  }
  std::sort(manifest.begin(), manifest.end(),
            [](const Manifestation& a, const Manifestation& b) { return a.time < b.time; });

  Evaluation out;
  out.predictions = predictions.size();

  // Precision: a prediction is true when any system-failure manifestation
  // lands inside (issued, expires] in its zone.
  for (const Prediction& p : predictions) {
    auto it = std::upper_bound(
        manifest.begin(), manifest.end(), p.issued,
        [](TimePoint t, const Manifestation& m) { return t < m.time; });
    for (; it != manifest.end() && it->time <= p.expires; ++it) {
      if (zone_covers(codec, p.midplane, it->loc_key)) {
        ++out.true_predictions;
        break;
      }
    }
  }

  // Recall + lead time over the truth system-failure interruptions: caught
  // when an alarm issued before the interruption was still covering the
  // fault's location at interruption time.
  double lead_sum_minutes = 0;
  for (const auto& intr : truth.interruptions) {
    const auto fi = static_cast<std::size_t>(intr.fault_instance);
    if (intr.fault_instance < 0 || fi >= truth.faults.size()) continue;
    const auto& fault = truth.faults[fi];
    if (fault.nature != ras::FaultNature::SystemFailure) continue;
    ++out.events_total;
    const std::uint32_t key = fault.location.packed();
    const Prediction* earliest = nullptr;
    for (const Prediction& p : predictions) {
      if (p.issued >= intr.time) break;  // issue-ordered: nothing later covers
      if (intr.time <= p.expires && zone_covers(codec, p.midplane, key)) {
        earliest = &p;
        break;
      }
    }
    if (earliest != nullptr) {
      ++out.events_caught;
      lead_sum_minutes += static_cast<double>(intr.time - earliest->issued) /
                          static_cast<double>(kUsecPerMin);
    }
  }
  out.mean_lead_minutes =
      out.events_caught == 0 ? 0.0 : lead_sum_minutes / static_cast<double>(out.events_caught);
  return out;
}

PolicyComparison compare_policies(const synth::ScenarioConfig& config,
                                  const MinerConfig& miner, const Context& ctx) {
  obs::Span span(ctx.obs(), "predict.compare_policies");
  PolicyComparison out;

  const synth::SynthResult baseline = synth::generate(config, ctx);
  const core::CoAnalysisResult analysis =
      core::run_coanalysis(baseline.ras, baseline.jobs, {}, ctx);
  out.rules = mine_rules(analysis, baseline.jobs, miner, ctx);
  const std::vector<Prediction> predictions = replay(out.rules, baseline.ras, ctx.obs());
  out.eval = evaluate(predictions, out.rules, baseline.truth, *config.machine);
  const LostWork base =
      lost_work(baseline.truth, baseline.jobs, *config.machine, config.resubmit.failure_hold);
  out.baseline_lost_node_hours = base.node_hours;
  out.baseline_interruptions = base.interruptions;

  PredictionAdvisor advisor(out.rules, *config.machine, ctx.obs());
  synth::ScenarioConfig advised_config = config;
  advised_config.advisor = &advisor;
  const synth::SynthResult advised = synth::generate(advised_config, ctx);
  const LostWork adv =
      lost_work(advised.truth, advised.jobs, *config.machine, config.resubmit.failure_hold);
  out.advised_lost_node_hours = adv.node_hours;
  out.advised_interruptions = adv.interruptions;
  return out;
}

synth::ScenarioConfig eval_scenario(std::uint64_t seed, int days) {
  // The persistent-fault-heavy regime is the one where prediction has
  // something real to predict: a broken component keeps re-hitting jobs at
  // a fixed midplane until repaired, so a rule fired on the first
  // manifestation covers the whole repair window. (The interrupting-heavy
  // storm packs are dominated by one-shot faults with no precursors —
  // irreducible misses for any correlation predictor.)
  synth::ScenarioConfig config =
      synth::pack_scenario(machine::bgp_model(), "correlated_cascade", seed, days);
  // Persistent faults dominate, and they stay broken long enough that
  // keeping jobs off the midplane matters.
  config.faults.interrupting_rate_per_day = 0.15;
  config.faults.persistent_rate_per_day = 0.9;
  config.faults.repair_mean_hours = 6.0;
  // Variance control for the policy comparison: the default Intrepid size
  // ladder lets a single interrupted 32..80-midplane job swing lost
  // node-hours by more than the whole predictable loss, and wide-job wear
  // makes fault locations chase occupancy (avoidance then just moves the
  // target). Small uniform jobs turn the loss metric into many similar
  // increments and pin fault locations, so the advised-vs-baseline delta
  // measures the policy, not placement roulette.
  config.workload.job_sizes = {1, 2, 4};
  config.workload.size_weights = {46413, 11911, 4822};
  // Runtime buckets capped at 6400 s for the same reason: a single
  // interrupted 100-hour job would carry more node-hours than every
  // preventable re-hit combined.
  config.workload.runtime_weights = {{12282, 7300, 17339, 0},
                                     {1146, 2601, 6052, 0},
                                     {881, 901, 1026, 0}};
  return config;
}

}  // namespace coral::predict
