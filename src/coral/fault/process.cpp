#include "coral/fault/process.hpp"

#include <cmath>

#include "coral/common/error.hpp"

namespace coral::fault {

using bgp::LocationKind;
using bgp::MidplaneId;
using ras::Catalog;
using ras::ErrcodeId;
using ras::ErrcodeInfo;
using ras::FaultNature;
using ras::JobImpact;

SystemFaultProcess::SystemFaultProcess(const FaultConfig& config, Rng rng,
                                       const Catalog& catalog,
                                       const machine::MachineModel& machine)
    : config_(config), rng_(rng), catalog_(&catalog), machine_(&machine) {
  std::vector<double> weights[4];
  for (ErrcodeId id : catalog.fatal_ids()) {
    const ErrcodeInfo& info = catalog.info(id);
    if (info.nature == FaultNature::ApplicationError) continue;  // driven by jobs
    TriggerClass cls;
    if (info.impact == JobImpact::Benign) {
      cls = TriggerClass::Benign;
    } else if (info.idle_bias) {
      cls = TriggerClass::IdleHardware;
    } else if (info.persistent) {
      cls = TriggerClass::Persistent;
    } else {
      cls = TriggerClass::Interrupting;
    }
    const auto c = static_cast<std::size_t>(cls);
    class_codes_[c].push_back(id);
    weights[c].push_back(info.weight);
  }
  // Small custom catalogs may leave a trigger class with no codes; such a
  // class simply never fires (its rate is forced to 0 below).
  for (std::size_t c = 0; c < 4; ++c) {
    if (!class_codes_[c].empty()) class_samplers_[c] = DiscreteSampler(weights[c]);
  }
}

double SystemFaultProcess::class_rate_per_usec(TriggerClass cls) const {
  if (class_codes_[static_cast<std::size_t>(cls)].empty()) return 0;
  double per_day = 0;
  switch (cls) {
    case TriggerClass::Interrupting: per_day = config_.interrupting_rate_per_day; break;
    case TriggerClass::Persistent: per_day = config_.persistent_rate_per_day; break;
    case TriggerClass::IdleHardware: per_day = config_.idle_rate_per_day; break;
    case TriggerClass::Benign: per_day = config_.benign_rate_per_day; break;
  }
  return per_day / static_cast<double>(kUsecPerDay);
}

double SystemFaultProcess::state_multiplier(TimePoint t) {
  while (t >= state_until_) {
    if (degraded_) {
      degraded_ = false;
      const double gap_days = rng_.exponential(config_.mean_days_between_degraded);
      state_until_ = state_until_ + static_cast<Usec>(gap_days * kUsecPerDay);
    } else {
      degraded_ = true;
      const double hours = rng_.exponential(config_.degraded_mean_hours);
      state_until_ = state_until_ + static_cast<Usec>(hours * kUsecPerHour);
    }
  }
  return degraded_ ? config_.degraded_multiplier : 1.0;
}

double SystemFaultProcess::drift_factor(TimePoint t) const {
  if (config_.rate_drift_per_year == 0.0) return 1.0;
  const double years =
      static_cast<double>(t - drift_origin_) / (365.25 * static_cast<double>(kUsecPerDay));
  return std::max(0.0, 1.0 + config_.rate_drift_per_year * years);
}

std::optional<Trigger> SystemFaultProcess::next(TimePoint now, TimePoint end) {
  if (!drift_origin_set_) {
    drift_origin_ = now;
    drift_origin_set_ = true;
  }
  // Superposed thinning across the four classes at the max (degraded) rate.
  double total_rate = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    total_rate += class_rate_per_usec(static_cast<TriggerClass>(c));
  }
  if (total_rate <= 0) return std::nullopt;  // fault-free configuration
  // The drift factor is monotone in t, so its peak over (now, end) is at one
  // of the endpoints; thinning against the peak keeps the process exact.
  // With drift 0 both factors are exactly 1.0 and every multiplication below
  // is an IEEE identity, so the RNG stream matches the drift-free process
  // bit for bit.
  const double peak_drift = std::max(drift_factor(now), drift_factor(end));
  const double max_rate = total_rate * config_.degraded_multiplier * peak_drift;
  if (max_rate <= 0) return std::nullopt;  // drifted to extinction
  TimePoint t = now;
  while (true) {
    t = t + static_cast<Usec>(rng_.exponential(1.0 / max_rate));
    if (t >= end) return std::nullopt;
    const double mult = state_multiplier(t) * drift_factor(t);
    if (!rng_.bernoulli(mult / (config_.degraded_multiplier * peak_drift))) continue;
    // Accepted: pick the class proportionally to its base rate.
    const double classes[4] = {
        class_rate_per_usec(TriggerClass::Interrupting),
        class_rate_per_usec(TriggerClass::Persistent),
        class_rate_per_usec(TriggerClass::IdleHardware),
        class_rate_per_usec(TriggerClass::Benign),
    };
    const auto cls = static_cast<TriggerClass>(rng_.categorical(classes));
    return Trigger{t, cls, pick_code(cls)};
  }
}

ErrcodeId SystemFaultProcess::pick_code(TriggerClass cls) {
  const auto c = static_cast<std::size_t>(cls);
  return class_codes_[c][class_samplers_[c].sample(rng_)];
}

std::optional<bgp::Location> SystemFaultProcess::choose_location(const Trigger& trigger,
                                                                 const OccupancyView& view) {
  const ErrcodeInfo& info = catalog_->info(trigger.code);
  const MidplaneId midplane_count = machine_->midplane_count();
  const machine::LocCodec codec = machine_->codec();
  std::vector<double> weights(static_cast<std::size_t>(midplane_count), 0.0);
  double total = 0;

  const auto footprint_idle = [&](MidplaneId m) {
    if (view.busy(m)) return false;
    if (info.loc_kind == LocationKind::Rack) {
      // Rack-level hardware touches every sibling midplane in the rack too.
      const machine::MidplaneRange rack = codec.rack_midplanes(codec.rack_of_midplane(m));
      for (MidplaneId s = rack.first; s < rack.end; ++s) {
        if (s != m && view.busy(s)) return false;
      }
    }
    return true;
  };

  for (MidplaneId m = 0; m < midplane_count; ++m) {
    double w = 0;
    switch (trigger.cls) {
      case TriggerClass::IdleHardware:
        w = footprint_idle(m) ? 1.0 : 0.0;
        break;
      case TriggerClass::Interrupting:
      case TriggerClass::Persistent:
        w = config_.base_location_weight;
        if (view.busy(m)) w += config_.busy_location_boost;
        w += config_.wide_boost_per_hour * view.wide_exposure_hours(m);
        break;
      case TriggerClass::Benign:
        w = config_.base_location_weight;
        if (view.busy(m)) w += config_.busy_location_boost + 1.0;
        // Network/power stress shows up as benign FATALs too, more weakly.
        w += 0.3 * config_.wide_boost_per_hour * view.wide_exposure_hours(m);
        break;
    }
    weights[static_cast<std::size_t>(m)] = w;
    total += w;
  }
  if (total <= 0) return std::nullopt;
  const auto mid = static_cast<MidplaneId>(rng_.categorical(weights));
  return machine_->location_on_midplane(info.loc_kind, mid, rng_);
}

Usec SystemFaultProcess::sample_repair_time() {
  const double mean_h = config_.repair_mean_hours;
  const double sigma = config_.repair_sigma;
  const double mu = std::log(mean_h) - sigma * sigma / 2.0;
  // Cap the lognormal tail: administrators escalate long outages, and an
  // uncapped tail makes one unlucky fault dominate a whole 237-day log.
  const double hours = std::min(rng_.lognormal(mu, sigma), 2.5 * mean_h);
  return static_cast<Usec>(hours * kUsecPerHour);
}

Usec SystemFaultProcess::sample_rehit_delay() {
  return static_cast<Usec>(rng_.exponential(config_.rehit_delay_mean_minutes) * kUsecPerMin);
}

}  // namespace coral::fault
