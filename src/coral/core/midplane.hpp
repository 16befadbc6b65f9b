#pragma once

#include <optional>
#include <vector>

#include "coral/core/interarrival.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/machine/model.hpp"

namespace coral::core {

/// Midplane-level failure characteristics (§V-B): the paper reports that
/// Weibull still fits the per-midplane interarrival distributions even
/// though the failure *rates* differ strongly across midplanes.
struct MidplaneFits {
  /// Fit per midplane (vector sized by the machine's midplane count);
  /// nullopt when fewer than `min_events` events landed there.
  std::vector<std::optional<InterarrivalFit>> fits;
  std::size_t fitted_count = 0;
  std::size_t weibull_preferred_count = 0;  ///< LRT favors Weibull
  std::size_t shape_below_one_count = 0;

  double weibull_preferred_fraction() const {
    return fitted_count == 0 ? 0.0
                             : static_cast<double>(weibull_preferred_count) /
                                   static_cast<double>(fitted_count);
  }
};

struct MidplaneFitConfig {
  std::size_t min_events = 12;  ///< events needed to attempt a fit
};

/// Fit per-midplane fatal-event interarrival distributions from the
/// filtered groups (rack-level events count toward every midplane of the
/// rack). The machine sizes the per-midplane buckets.
MidplaneFits fit_midplane_interarrivals(const filter::FilterPipelineResult& filtered,
                                        const MidplaneFitConfig& config = {},
                                        const machine::MachineModel& machine =
                                            machine::bgp_model());

}  // namespace coral::core
