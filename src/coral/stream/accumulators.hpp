#pragma once

#include <cstddef>
#include <vector>

#include "coral/bgp/location.hpp"
#include "coral/joblog/job.hpp"
#include "coral/machine/model.hpp"

namespace coral::stream {

/// Per-day event counter (Fig. 5): bucket = floor days since `origin`.
class DailyCounter {
 public:
  explicit DailyCounter(TimePoint origin) : origin_(origin) {}

  void add(TimePoint t);
  /// Grow to at least `n` buckets (the batch path always materializes day 0
  /// when the job log is non-empty, even with zero interruptions).
  void ensure_days(std::size_t n) {
    if (counts_.size() < n) counts_.resize(n, 0);
  }

  const std::vector<int>& counts() const { return counts_; }
  std::vector<int> take() { return std::move(counts_); }

 private:
  TimePoint origin_;
  std::vector<int> counts_;
};

/// Per-midplane tallies for the Fig. 4 series: fatal-event counts (an event
/// split evenly over the midplanes its location touches) and workload in
/// midplane-seconds (all jobs, and wide jobs at or above the machine's
/// PlacementZones::wide_threshold — 32 midplanes on the reference BG/P).
///
/// Additions replicate the batch loops operation-for-operation, so feeding
/// groups/jobs in log order reproduces the batch sums bit-for-bit.
class MidplaneTallies {
 public:
  explicit MidplaneTallies(const machine::MachineModel& machine)
      : fatal_events(static_cast<std::size_t>(machine.midplane_count()), 0.0),
        workload_sec(static_cast<std::size_t>(machine.midplane_count()), 0.0),
        wide_workload_sec(static_cast<std::size_t>(machine.midplane_count()), 0.0),
        codec_(machine.codec()),
        wide_threshold_(machine.placement_zones().wide_threshold) {}

  /// Tally a group representative by the midplanes its location touches
  /// (the machine codec's rule). The Location overload forwards to the key.
  void add_group_rep(const bgp::Location& rep_location);
  void add_group_rep(std::uint32_t loc_key);
  void add_job(const joblog::JobRecord& job);

  std::vector<double> fatal_events;
  std::vector<double> workload_sec;
  std::vector<double> wide_workload_sec;

 private:
  machine::LocCodec codec_;
  int wide_threshold_;
};

}  // namespace coral::stream
