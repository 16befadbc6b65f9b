#pragma once

#include <cstdint>
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
  /// Per job: the index of the group that interrupted it, or -1 when the
  /// job completed cleanly.
  std::vector<std::int32_t> group_by_job;
};

}  // namespace coral::core
