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

void MidplaneTallies::add_group_rep(const bgp::Location& rep_location) {
  add_group_rep(rep_location.packed());
}

void MidplaneTallies::add_group_rep(std::uint32_t loc_key) {
  // A location over several midplanes (a rack) splits its count evenly.
  const machine::MidplaneRange r = codec_.midplanes(loc_key);
  if (r.size() == 1) {
    fatal_events[static_cast<std::size_t>(r.first)] += 1;
    return;
  }
  const double share = 1.0 / r.size();
  for (machine::MidplaneId m = r.first; m < r.end; ++m) {
    fatal_events[static_cast<std::size_t>(m)] += share;
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

}  // namespace coral::stream
