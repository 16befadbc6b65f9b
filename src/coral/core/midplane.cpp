#include "coral/core/midplane.hpp"

#include <algorithm>

namespace coral::core {

MidplaneFits fit_midplane_interarrivals(const filter::FilterPipelineResult& filtered,
                                        const MidplaneFitConfig& config,
                                        const machine::MachineModel& machine) {
  MidplaneFits out;
  out.fits.resize(static_cast<std::size_t>(machine.midplane_count()));
  std::vector<std::vector<TimePoint>> times(static_cast<std::size_t>(machine.midplane_count()));
  for (const filter::EventGroup& g : filtered.groups) {
    const ras::RasEvent& rep = filtered.fatal_events[g.rep];
    const machine::MidplaneRange r = machine.codec().midplanes(rep.location.packed());
    for (machine::MidplaneId m = r.first; m < r.end; ++m) {
      times[static_cast<std::size_t>(m)].push_back(rep.event_time);
    }
  }
  for (std::size_t m = 0; m < times.size(); ++m) {
    if (times[m].size() < config.min_events) continue;
    std::sort(times[m].begin(), times[m].end());
    out.fits[m] = fit_interarrivals(interarrival_seconds(times[m]));
    out.fitted_count += 1;
    if (out.fits[m]->lrt.weibull_preferred) out.weibull_preferred_count += 1;
    if (out.fits[m]->weibull.shape() < 1.0) out.shape_below_one_count += 1;
  }
  return out;
}

}  // namespace coral::core
