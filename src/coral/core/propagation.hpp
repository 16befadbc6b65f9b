#pragma once

#include <map>
#include <set>

#include "coral/core/classification.hpp"

namespace coral::core {

/// Failure-propagation analysis (§VI-C; Observation 8).
struct PropagationResult {
  /// Groups that interrupted >= 2 jobs on non-overlapping partitions
  /// (spatial propagation across concurrently running jobs).
  std::vector<std::size_t> propagating_groups;
  /// Errcodes responsible for spatial propagation (paper:
  /// bg_code_script_error and CiodHungProxy).
  std::set<ras::ErrcodeId> propagating_codes;
  /// Fraction of fatal-event groups that propagate (paper: 7.22%).
  double propagating_event_fraction = 0;

  /// Temporal propagation: resubmissions placed on the same partition as
  /// the interrupted run (paper: 57.44%).
  std::size_t resubmissions_after_interruption = 0;
  std::size_t resubmissions_same_partition = 0;
  double same_partition_fraction() const {
    return resubmissions_after_interruption == 0
               ? 0.0
               : static_cast<double>(resubmissions_same_partition) /
                     static_cast<double>(resubmissions_after_interruption);
  }
};

struct PropagationConfig {
  /// A later run of the same executable within this gap of an interrupted
  /// run counts as the resubmission of that run.
  Usec resubmit_gap = 3 * kUsecPerDay;
};

/// Drives the spatial pass from the job-log partition ranges (a disjoint
/// victim pair exists iff max(first) >= min(end)) and the temporal pass from
/// each interrupted run's place in its exec chain (JobLog::columns()), so it
/// costs O(groups + interruptions); `pool` is accepted for signature
/// compatibility and unused.
PropagationResult analyze_propagation(const filter::FilterPipelineResult& filtered,
                                      const MatchResult& matches,
                                      const joblog::JobLog& jobs,
                                      const CharColumns& cols,
                                      const PropagationConfig& config = {},
                                      par::ThreadPool* pool = nullptr);

}  // namespace coral::core
