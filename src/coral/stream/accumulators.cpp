#include "coral/stream/accumulators.hpp"

#include "coral/common/error.hpp"

namespace coral::stream {

void DailyCounter::add(TimePoint t) {
  const std::int64_t day = t.days_since(origin_);
  CORAL_EXPECTS(day >= 0);
  const auto bucket = static_cast<std::size_t>(day);
  if (bucket >= counts_.size()) counts_.resize(bucket + 1, 0);
  counts_[bucket] += 1;
}

void DailyCounter::merge(const DailyCounter& other) {
  ensure_days(other.counts_.size());
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void MidplaneTallies::add_group_rep(const bgp::Location& rep_location) {
  const auto mid = rep_location.midplane_id();
  if (mid) {
    fatal_events[static_cast<std::size_t>(*mid)] += 1;
  } else {
    // Rack-level events touch every midplane in the rack; split the count.
    const int first = rep_location.rack_index() * codec_.midplanes_per_rack;
    const double share = 1.0 / codec_.midplanes_per_rack;
    for (int i = 0; i < codec_.midplanes_per_rack; ++i) {
      fatal_events[static_cast<std::size_t>(first + i)] += share;
    }
  }
}

void MidplaneTallies::add_group_rep(std::uint32_t loc_key) {
  if (!codec_.is_rack(loc_key)) {
    fatal_events[static_cast<std::size_t>(codec_.midplane_of(loc_key))] += 1;
  } else {
    const auto first = codec_.rack_first_midplane(loc_key);
    const double share = 1.0 / codec_.midplanes_per_rack;
    for (int i = 0; i < codec_.midplanes_per_rack; ++i) {
      fatal_events[static_cast<std::size_t>(first + i)] += share;
    }
  }
}

void MidplaneTallies::add_job(const joblog::JobRecord& job) {
  const double seconds =
      static_cast<double>(job.runtime()) / static_cast<double>(kUsecPerSec);
  const bool wide = job.size_midplanes() >= wide_threshold_;
  for (bgp::MidplaneId m = job.partition.first_midplane(); m < job.partition.end_midplane();
       ++m) {
    workload_sec[static_cast<std::size_t>(m)] += seconds;
    if (wide) wide_workload_sec[static_cast<std::size_t>(m)] += seconds;
  }
}

void MidplaneTallies::merge(const MidplaneTallies& other) {
  for (std::size_t i = 0; i < fatal_events.size(); ++i) {
    fatal_events[i] += other.fatal_events[i];
    workload_sec[i] += other.workload_sec[i];
    wide_workload_sec[i] += other.wide_workload_sec[i];
  }
}

}  // namespace coral::stream
