#include "coral/core/characterization.hpp"

namespace coral::core {

CharColumns build_char_columns(const filter::FilterPipelineResult& filtered,
                               const MatchResult& /*matches*/,
                               const joblog::JobLog& /*jobs*/, par::ThreadPool* /*pool*/) {
  CharColumns c;
  const std::size_t n_groups = filtered.groups.size();

  c.group_time.resize(n_groups);
  c.group_code.resize(n_groups);
  c.group_loc.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const ras::RasEvent& rep = filtered.fatal_events[filtered.groups[g].rep];
    c.group_time[g] = rep.event_time;
    c.group_code[g] = rep.errcode;
    c.group_loc[g] = rep.location.packed();
  }
  return c;
}

}  // namespace coral::core
