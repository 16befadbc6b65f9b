#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coral/joblog/job.hpp"

namespace coral::joblog {

/// Per-midplane job interval index, built once by JobLog::finalize().
///
/// Job j appears in bucket m exactly when j.partition contains midplane m,
/// so a query about an event at location L only ever touches the buckets of
/// L's footprint (the midplanes the machine codec says it touches) instead of
/// testing Partition::covers_key() against every job in a time window. Buckets
/// share one CSR layout in ascending job-index (= start time, the JobLog
/// sort order) order, with parallel start/end time columns and a running
/// max-end prefix — running_at()'s bounded backward scan, per bucket.
class IntervalIndex {
 public:
  /// Default: a valid index over zero jobs and zero midplanes.
  IntervalIndex() : IntervalIndex(std::span<const JobRecord>{}, 0) {}
  /// `jobs` must be sorted by start time. `midplane_count` sizes the bucket
  /// table.
  IntervalIndex(std::span<const JobRecord> jobs, int midplane_count);

  /// A bucket in ascending job-index (= start time) order.
  struct StartSlice {
    std::span<const std::uint32_t> job;
    std::span<const TimePoint> start_time;  ///< ascending
    std::span<const TimePoint> end_time;    ///< parallel, unordered
    std::span<const TimePoint> max_end;     ///< running max of end_time
  };

  StartSlice starts(bgp::MidplaneId m) const {
    const std::size_t b = offset_[static_cast<std::size_t>(m)];
    const std::size_t e = offset_[static_cast<std::size_t>(m) + 1];
    return {{job_.data() + b, e - b},
            {start_time_.data() + b, e - b},
            {end_time_.data() + b, e - b},
            {max_end_.data() + b, e - b}};
  }

  bool empty() const { return job_.empty(); }

 private:
  std::vector<std::uint32_t> offset_;  ///< midplane_count + 1 bucket offsets

  std::vector<std::uint32_t> job_;
  std::vector<TimePoint> start_time_;
  std::vector<TimePoint> end_time_;
  std::vector<TimePoint> max_end_;
};

}  // namespace coral::joblog
