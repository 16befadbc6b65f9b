#include "coral/filter/neuralgas.hpp"

#include <algorithm>
#include <map>

namespace coral::filter {

std::vector<EventGroup> neural_gas_filter(std::span<const ras::RasEvent> events,
                                          const NeuralGasFilterConfig& config,
                                          const ras::Catalog& catalog,
                                          const machine::MachineModel& machine) {
  if (events.empty()) return {};

  // Feature embedding. Time is normalized over the log span; location is
  // the midplane index; the errcode axis keeps different codes apart.
  const TimePoint t0 = events.front().event_time;
  const TimePoint t1 = events.back().event_time;
  const double span = std::max<double>(1.0, static_cast<double>(t1 - t0));
  const double n_codes = static_cast<double>(catalog.fatal_ids().size());
  const double n_midplanes = machine.midplane_count();

  std::vector<std::vector<double>> points;
  points.reserve(events.size());
  for (const ras::RasEvent& ev : events) {
    const double midplane = machine.codec().midplanes(ev.location.packed()).first;
    points.push_back({
        config.time_weight * static_cast<double>(ev.event_time - t0) / span,
        config.space_weight * midplane / n_midplanes,
        config.code_weight * static_cast<double>(ev.errcode) / n_codes,
    });
  }

  stats::NeuralGasConfig gas = config.gas;
  if (gas.units == 0) {
    gas.units = std::clamp<std::size_t>(events.size() / 64, 16, 512);
  }
  const stats::NeuralGas ng = stats::NeuralGas::train(points, gas);
  const std::vector<std::size_t> assignment = ng.assign(points);

  // Records in one cluster, chained in time with a gap limit, form one
  // group (events are already time-sorted, so per-cluster order is too).
  std::map<std::size_t, std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < events.size(); ++i) {
    clusters[assignment[i]].push_back(i);
  }

  std::vector<EventGroup> groups;
  for (const auto& [unit, members] : clusters) {
    (void)unit;
    EventGroup current;
    for (std::size_t idx : members) {
      if (!current.members.empty() &&
          events[idx].event_time - events[current.members.back()].event_time >
              config.chain_gap) {
        groups.push_back(std::move(current));
        current = EventGroup{};
      }
      if (current.members.empty()) current.rep = idx;
      current.members.push_back(idx);
    }
    if (!current.members.empty()) groups.push_back(std::move(current));
  }

  // Present groups in representative-time order like the other filters.
  std::sort(groups.begin(), groups.end(), [&events](const EventGroup& a, const EventGroup& b) {
    return events[a.rep].event_time < events[b.rep].event_time;
  });
  return groups;
}

}  // namespace coral::filter
