#pragma once

#include <cstdint>
#include <vector>

#include "coral/context.hpp"
#include "coral/fault/process.hpp"
#include "coral/fault/storm.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/log.hpp"
#include "coral/sched/policy.hpp"
#include "coral/synth/workload.hpp"

namespace coral::synth {

/// Non-fatal background record generation.
struct NoiseConfig {
  bool enabled = true;
  /// Background (activity-independent) non-fatal records per day.
  double background_per_day = 4500.0;
  /// Reboot-before-execution INFO records per midplane per job start.
  int boot_records_per_midplane = 5;
};

/// Periodic maintenance windows: while a window is open the scheduler stops
/// starting jobs (a drain — running jobs finish, faults still fire on the
/// increasingly idle machine). Models the maintenance-heavy stretches the
/// paper's Fig. 5 shows as quiet days. Disabled (the default) leaves the
/// simulation — including every RNG stream — untouched.
struct MaintenanceConfig {
  bool enabled = false;
  /// Start of the first window (typically scenario start + a few days).
  TimePoint first;
  Usec period = 7 * kUsecPerDay;
  Usec duration = 8 * kUsecPerHour;
};

/// User resubmission behaviour after an interruption.
struct ResubmitConfig {
  double prob_after_system = 0.85;
  double prob_after_app = 0.92;
  double delay_mean_hours_system = 0.3;
  double delay_mean_hours_app = 1.0;
  /// Extra concurrently running victim jobs hit by a propagating
  /// application error (Poisson mean; §VI-C).
  double propagate_extra_jobs_mean = 1.2;
  /// After a job is interrupted, the control system holds its partition for
  /// cleanup/reboot before anything else can boot there. This is what lets
  /// a promptly resubmitted job reclaim its old partition (the paper's
  /// 57.44% same-partition placements) on an otherwise backlogged machine.
  Usec failure_hold = 25 * kUsecPerMin;
};

/// Everything needed to generate one synthetic log pair.
struct ScenarioConfig {
  std::uint64_t seed = 42;
  TimePoint start = TimePoint::from_calendar(2009, 1, 5);
  int days = 237;
  /// The machine the scenario runs on. Sizes the scheduler pool, the fault
  /// process's location weights, and every partition/location drawn; the
  /// workload's job_sizes must be legal partition sizes here.
  const machine::MachineModel* machine = &machine::bgp_model();
  WorkloadConfig workload;
  fault::FaultConfig faults;
  fault::StormConfig storm;
  sched::SchedulerConfig sched;
  NoiseConfig noise;
  ResubmitConfig resubmit;
  MaintenanceConfig maintenance;
  /// Optional live placement advisor (non-owning; must outlive generate()):
  /// the one fault-aware placement hook. The simulation feeds it the
  /// primary record of each fault manifestation as emitted and steers
  /// placements away from midplanes it advises against —
  /// sched::RecentFailureAdvisor for past failures,
  /// predict::PredictionAdvisor for predicted ones. An advisor keeps state
  /// from the run it watched, so each generate() call gets a fresh one.
  /// Null (no avoidance) leaves every placement and RNG stream untouched.
  sched::PlacementAdvisor* advisor = nullptr;

  TimePoint end() const { return start + static_cast<Usec>(days) * kUsecPerDay; }
};

/// One ground-truth fault instance (a real underlying fault, not a record).
struct FaultInstanceTruth {
  std::int32_t id = -1;
  TimePoint time;
  ras::ErrcodeId code = 0;
  bgp::Location location;
  ras::FaultNature nature = ras::FaultNature::SystemFailure;
  bool persistent = false;
  /// For persistent faults: id of the original instance when this entry is
  /// a re-manifestation (job-related redundancy); -1 for originals.
  std::int32_t redundant_of = -1;
};

/// Ground-truth record of one job interruption.
struct InterruptionTruth {
  std::int64_t job_id = 0;
  std::int32_t fault_instance = -1;
  ras::ErrcodeId code = 0;
  TimePoint time;
};

/// Generator-side truth, used only to *score* the analysis pipeline.
struct GroundTruth {
  std::vector<FaultInstanceTruth> faults;
  /// Per-RAS-record fault instance id, aligned with the finalized RasLog
  /// (index = log position); -1 marks background noise records.
  std::vector<std::int32_t> record_tags;
  std::vector<InterruptionTruth> interruptions;
};

/// A generated log pair plus its ground truth.
struct SynthResult {
  ras::RasLog ras;
  joblog::JobLog jobs;
  GroundTruth truth;
};

/// Run the full machine simulation and emit the log pair. Deterministic in
/// `config.seed` folded through `ctx`'s seed policy; the context's catalog
/// is the machine description (the default context generates Intrepid).
SynthResult generate(const ScenarioConfig& config, const Context& ctx = {});

}  // namespace coral::synth
