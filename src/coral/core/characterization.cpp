#include "coral/core/characterization.hpp"

namespace coral::core {

CharColumns build_char_columns(const filter::FilterPipelineResult& filtered,
                               const MatchResult& matches, const joblog::JobLog& jobs,
                               par::ThreadPool* pool) {
  CharColumns c;
  const std::size_t n_groups = filtered.groups.size();
  const std::size_t n_jobs = jobs.size();

  c.group_time.resize(n_groups);
  c.group_code.resize(n_groups);
  c.group_loc.resize(n_groups);
  par::parallel_for_chunks(n_groups, 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const ras::RasEvent& rep = filtered.fatal_events[filtered.groups[g].rep];
      c.group_time[g] = rep.event_time;
      c.group_code[g] = rep.errcode;
      c.group_loc[g] = rep.location.packed();
    }
  }, pool);

  c.job_group.resize(n_jobs);
  par::parallel_for_chunks(n_jobs, 8192, [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      const auto& g = matches.group_by_job[j];
      c.job_group[j] = g ? static_cast<std::int32_t>(*g) : -1;
    }
  }, pool);
  return c;
}

}  // namespace coral::core
