#pragma once

#include <map>
#include <vector>

#include "coral/joblog/log.hpp"

namespace coral::joblog {

/// Machine-utilization and workload statistics over a job log — the §V-B
/// inputs (Fig. 4b/4c) plus the per-user/per-project aggregates that the
/// suspicious-user analysis (§VI-D) builds on.
struct WorkloadStats {
  /// Busy midplane-seconds per midplane (Fig. 4b), indexed by MidplaneId,
  /// sized to the log's machine.
  std::vector<double> midplane_busy_sec;
  /// Busy midplane-seconds from wide jobs (Fig. 4c): at or above the
  /// machine's PlacementZones::wide_threshold, 32 midplanes on BG/P.
  std::vector<double> midplane_wide_sec;
  /// Jobs per size class, aligned with the machine's
  /// legal_partition_sizes() (Table VI's {1,2,4,8,16,32,48,64,80} on BG/P).
  std::vector<std::size_t> jobs_per_size;
  /// Machine-wide utilization in [0, 1] (busy midplane-seconds over
  /// midplane-count * wall-clock).
  double utilization = 0;
  /// Average queue wait in seconds.
  double mean_wait_sec = 0;
};

/// Aggregates for one user or project.
struct PartyStats {
  std::size_t jobs = 0;
  double node_seconds = 0;  ///< midplane-seconds submitted
};

/// Compute workload statistics on the log's machine.
WorkloadStats workload_stats(const JobLog& jobs);

/// Per-user aggregates, keyed by UserId.
std::map<UserId, PartyStats> stats_by_user(const JobLog& jobs);

/// Per-project aggregates, keyed by ProjectId.
std::map<ProjectId, PartyStats> stats_by_project(const JobLog& jobs);

/// Machine utilization sampled on a fixed grid: fraction of midplanes busy
/// at each sample point. Useful for plotting load over time.
std::vector<double> utilization_timeline(const JobLog& jobs, TimePoint begin,
                                         TimePoint end, Usec step);

}  // namespace coral::joblog
