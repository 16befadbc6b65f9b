#pragma once

#include "coral/filter/groups.hpp"
#include "coral/machine/model.hpp"
#include "coral/stats/neural_gas.hpp"

namespace coral::filter {

/// Neural-gas filtering baseline, after Hacker et al. [10]: embed each
/// FATAL record in a (time, location, errcode) feature space, cluster with
/// neural gas, and treat each cluster — split at long temporal gaps — as
/// one independent event. The paper contrasts its temporal-spatial +
/// causality + job-related pipeline against exactly this family of
/// clustering filters.
struct NeuralGasFilterConfig {
  stats::NeuralGasConfig gas;   ///< `gas.units == 0` → auto (#records/64)
  double time_weight = 4.0;     ///< feature scaling: time dominates
  double space_weight = 1.0;    ///< midplane axis
  double code_weight = 2.0;     ///< errcode identity axis
  Usec chain_gap = kUsecPerHour;  ///< split same-cluster chains at this gap

  NeuralGasFilterConfig() { gas.units = 0; }
};

/// Cluster the (time-sorted) events into groups. Deterministic in
/// `config.gas.seed`. The catalog scales the errcode feature axis; the
/// machine the events came from places each location on the midplane axis
/// (the first midplane it touches, normalized by the machine's midplane
/// count).
std::vector<EventGroup> neural_gas_filter(
    std::span<const ras::RasEvent> events, const NeuralGasFilterConfig& config = {},
    const ras::Catalog& catalog = ras::default_catalog(),
    const machine::MachineModel& machine = machine::bgp_model());

}  // namespace coral::filter
