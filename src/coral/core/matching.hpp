#pragma once

#include <optional>
#include <vector>

#include "coral/common/time.hpp"

namespace coral::core {

/// RAS↔job matching knobs (§IV): a job is interrupted by an event when its
/// End Time lies within `window` of the event's representative record and
/// its partition covers one of the event's member records.
struct MatchConfig {
  Usec window = 120 * kUsecPerSec;
};

/// One matched (event group, job) pair.
struct Interruption {
  std::size_t group = 0;  ///< index into the filter result's groups
  std::size_t job = 0;    ///< index into the JobLog
  TimePoint time;         ///< the job's end time
};

/// The complete matching between filtered fatal events and job
/// terminations.
struct MatchResult {
  std::vector<Interruption> interruptions;  ///< sorted by job end time
  /// Per group: indices of interrupted jobs (empty when none).
  std::vector<std::vector<std::size_t>> jobs_by_group;
  /// Per job: the matching group, if any.
  std::vector<std::optional<std::size_t>> group_by_job;

  std::size_t interrupted_job_count() const { return interruptions.size(); }
};

}  // namespace coral::core
