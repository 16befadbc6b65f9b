#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "coral/bgp/partition.hpp"
#include "coral/common/rng.hpp"
#include "coral/common/time.hpp"
#include "coral/machine/model.hpp"
#include "coral/ras/catalog.hpp"

namespace coral::fault {

/// Ground-truth system fault behaviour knobs. Rates are machine-wide
/// triggers per day in the normal state.
struct FaultConfig {
  double interrupting_rate_per_day = 0.55;  ///< one-shot interrupting system faults
  double persistent_rate_per_day = 0.07;    ///< repair-needed system faults (§IV-B)
  double idle_rate_per_day = 1.05;          ///< faults on idle hardware (§IV-A)
  double benign_rate_per_day = 0.50;        ///< FATAL-severity non-impacting faults

  /// Markov-modulated "degraded period" that clusters failures in time
  /// (produces the Weibull shape < 1 the paper observes).
  double degraded_multiplier = 7.0;
  double mean_days_between_degraded = 10.0;
  double degraded_mean_hours = 8.0;

  /// Location-choice coupling (§V-B, Observation 5): the weight added per
  /// hour of recent wide-job (>= 32 midplanes) exposure on a midplane.
  double wide_boost_per_hour = 0.5;
  /// Extra exposure-hours credited while a wide job is running right now.
  double wide_running_bonus_hours = 6.0;
  /// Residual wear decay constant: a midplane's accumulated wide-job
  /// exposure decays as exp(-dt/tau). Wide runs stress clock/link/power
  /// domains and the latent fault often fires later; this is what
  /// concentrates Fig. 4a's failure counts in the wide-job region even
  /// though wide jobs occupy it only a fraction of the time.
  double wide_wear_tau_hours = 72.0;
  /// Busy (any job) midplanes attract a milder boost.
  double busy_location_boost = 0.35;
  /// Baseline weight of an arbitrary midplane.
  double base_location_weight = 0.25;

  /// Persistent-fault repair time: lognormal, parameterized by the mean (h)
  /// and sigma of the underlying normal.
  double repair_mean_hours = 3.0;
  double repair_sigma = 0.5;
  /// Delay after a job starts atop an unrepaired persistent fault before the
  /// fault re-manifests and kills it.
  double rehit_delay_mean_minutes = 8.0;

  /// Linear drift of all trigger-class rates over simulated time: rates are
  /// scaled by (1 + rate_drift_per_year * years) where years counts from the
  /// first next() call (clamped at 0). Positive values model aging hardware,
  /// negative values a burn-in period. 0 (the default) leaves the process —
  /// including its RNG stream — bit-identical to the drift-free one.
  double rate_drift_per_year = 0.0;
};

/// The class of a system fault trigger, used to pick the errcode family.
enum class TriggerClass { Interrupting, Persistent, IdleHardware, Benign };

/// A ground-truth fault trigger produced by the process.
struct Trigger {
  TimePoint time;
  TriggerClass cls = TriggerClass::Interrupting;
  ras::ErrcodeId code = 0;
};

/// What the fault process needs to know about current machine occupancy.
struct OccupancyView {
  std::function<bool(bgp::MidplaneId)> busy;  ///< any job on this midplane?
  /// Recent wide-job (>= 32 midplanes) exposure of this midplane, in
  /// decayed hours (plus the running bonus when a wide job is on it now).
  std::function<double(bgp::MidplaneId)> wide_exposure_hours;
};

/// Generates system-fault triggers over time: a Markov-modulated Poisson
/// process (normal/degraded states) for each trigger class, with errcodes
/// drawn by catalog weight within the class. Location choice is a separate
/// step because it depends on machine occupancy at the trigger time.
class SystemFaultProcess {
 public:
  SystemFaultProcess(const FaultConfig& config, Rng rng,
                     const ras::Catalog& catalog = ras::default_catalog(),
                     const machine::MachineModel& machine = machine::bgp_model());

  /// The machine whose midplanes locations are drawn over.
  const machine::MachineModel& machine() const { return *machine_; }

  /// Next trigger strictly after `now`, or nullopt if it falls past `end`.
  std::optional<Trigger> next(TimePoint now, TimePoint end);

  /// The rate multiplier in effect at time t (advances the Markov state).
  double state_multiplier(TimePoint t);

  /// Pick a concrete location for a trigger.
  /// - IdleHardware triggers require a fully idle footprint; nullopt when
  ///   the machine is too busy (the trigger is then dropped).
  /// - Interrupting/Persistent triggers are attracted to wide-job midplanes.
  /// - Benign triggers are attracted to busy midplanes.
  std::optional<bgp::Location> choose_location(const Trigger& trigger,
                                               const OccupancyView& view);

  /// Sample a repair duration for a persistent fault.
  Usec sample_repair_time();

  /// Sample the delay before a persistent fault kills a newly started job.
  Usec sample_rehit_delay();

  Rng& rng() { return rng_; }

 private:
  double class_rate_per_usec(TriggerClass cls) const;
  double drift_factor(TimePoint t) const;
  ras::ErrcodeId pick_code(TriggerClass cls);

  FaultConfig config_;
  Rng rng_;
  const ras::Catalog* catalog_;
  const machine::MachineModel* machine_;
  // Degraded-state machine.
  bool degraded_ = false;
  TimePoint state_until_;
  // Rate-drift origin: pinned to `now` of the first next() call.
  TimePoint drift_origin_;
  bool drift_origin_set_ = false;
  // Per-class code samplers.
  std::vector<ras::ErrcodeId> class_codes_[4];
  DiscreteSampler class_samplers_[4];
};

}  // namespace coral::fault
