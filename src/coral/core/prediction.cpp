#include "coral/core/prediction.hpp"

namespace coral::core {

namespace {

/// Cost charged per proactively handled job: a preventive checkpoint of
/// roughly 15 minutes of node time per midplane.
constexpr double kProactiveHoursPerMidplane = 0.25;

}  // namespace

PredictionOutcome evaluate_predictor(const CoAnalysisResult& analysis,
                                     const joblog::JobLog& jobs,
                                     const PredictorConfig& config) {
  PredictionOutcome out;
  out.total_interruptions = analysis.matches.interruptions.size();

  struct Alarm {
    TimePoint time;
    bgp::Location location;
  };
  std::vector<Alarm> alarms;
  for (const filter::EventGroup& g : analysis.filtered.groups) {
    const ras::RasEvent& rep = analysis.filtered.fatal_events[g.rep];
    if (config.use_identification) {
      const auto it = analysis.identification.verdicts.find(rep.errcode);
      if (it != analysis.identification.verdicts.end() &&
          it->second == ErrcodeVerdict::NonFatalToJobs) {
        continue;  // known to be harmless; no proactive action
      }
    }
    alarms.push_back({rep.event_time, rep.location});
  }
  out.alarms = alarms.size();

  const bgp::Partition whole_machine =
      bgp::Partition::unchecked(0, jobs.machine().midplane_count());
  const machine::LocCodec codec = jobs.machine().codec();
  const auto covers = [&](const Interruption& in, const Alarm& alarm) {
    return jobs[in.job].partition.covers_key(alarm.location.packed(), codec);
  };

  // Score alarms: did a *future* interruption occur within the horizon at a
  // location the alarm covers? (The kill at the alarm instant itself is not
  // a prediction.)
  for (const Alarm& alarm : alarms) {
    bool hit = false;
    for (const Interruption& in : analysis.matches.interruptions) {
      if (in.time <= alarm.time) continue;
      if (in.time - alarm.time > config.horizon) continue;
      if (config.use_location && !covers(in, alarm)) continue;
      hit = true;
      break;
    }
    if (hit) ++out.true_alarms;

    // Proactive-action cost: every healthy job the action touches.
    const auto running =
        config.use_location ? jobs.running_at(alarm.time, alarm.location)
                            : jobs.running_at(alarm.time, whole_machine);
    for (std::size_t j : running) {
      if (analysis.matches.group_by_job[j]) continue;  // it was doomed anyway
      out.disturbed_node_hours +=
          kProactiveHoursPerMidplane * jobs[j].size_midplanes();
    }
  }

  // Recall: interruptions preceded by a covering alarm.
  for (const Interruption& in : analysis.matches.interruptions) {
    for (const Alarm& alarm : alarms) {
      if (alarm.time >= in.time) break;  // alarms are time-ordered
      if (in.time - alarm.time > config.horizon) continue;
      if (config.use_location && !covers(in, alarm)) continue;
      ++out.caught;
      break;
    }
  }
  return out;
}

}  // namespace coral::core
