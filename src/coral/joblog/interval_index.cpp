#include "coral/joblog/interval_index.hpp"

#include <limits>

#include "coral/bgp/topology.hpp"
#include "coral/common/error.hpp"

namespace coral::joblog {

IntervalIndex::IntervalIndex(std::span<const JobRecord> jobs, int midplane_count) {
  CORAL_EXPECTS(jobs.size() <= std::numeric_limits<std::uint32_t>::max());
  CORAL_EXPECTS(midplane_count >= 0);
  offset_.assign(static_cast<std::size_t>(midplane_count) + 1, 0);
  for (const JobRecord& j : jobs) {
    for (auto m = j.partition.first_midplane(); m < j.partition.end_midplane(); ++m) {
      offset_[static_cast<std::size_t>(m) + 1] += 1;
    }
  }
  for (std::size_t m = 0; m + 1 < offset_.size(); ++m) {
    offset_[m + 1] += offset_[m];
  }
  const std::size_t total = offset_.back();
  job_.resize(total);
  start_time_.resize(total);
  end_time_.resize(total);
  max_end_.resize(total);

  std::vector<std::uint32_t> cursor(offset_.begin(), offset_.end() - 1);
  for (std::size_t idx = 0; idx < jobs.size(); ++idx) {
    const JobRecord& j = jobs[idx];
    for (auto m = j.partition.first_midplane(); m < j.partition.end_midplane(); ++m) {
      const std::size_t pos = cursor[static_cast<std::size_t>(m)]++;
      job_[pos] = static_cast<std::uint32_t>(idx);
      start_time_[pos] = j.start_time;
      end_time_[pos] = j.end_time;
      max_end_[pos] =
          pos > offset_[static_cast<std::size_t>(m)] && max_end_[pos - 1] > j.end_time
              ? max_end_[pos - 1]
              : j.end_time;
    }
  }
}

}  // namespace coral::joblog
