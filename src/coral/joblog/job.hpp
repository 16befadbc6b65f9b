#pragma once

#include <cstdint>

#include "coral/bgp/partition.hpp"
#include "coral/common/time.hpp"

namespace coral::joblog {

/// Identifier of a *distinct job* (§III-B): jobs sharing an execution file
/// are one distinct job. Index into JobLog::exec_files().
using ExecId = std::int32_t;
using UserId = std::int32_t;
using ProjectId = std::int32_t;

/// One Cobalt job-log record (Table III of the paper).
///
/// The analysis side treats `end_time` + `partition` as the interruption
/// matching key; it never trusts `exit_code` (real job logs are unreliable
/// there), mirroring the paper's matching-by-time-and-location approach.
struct JobRecord {
  std::int64_t job_id = 0;
  ExecId exec_id = 0;
  UserId user_id = 0;
  ProjectId project_id = 0;
  TimePoint queue_time;  ///< when the job entered the wait queue
  TimePoint start_time;  ///< when it started running
  TimePoint end_time;    ///< when it exited (finished or interrupted)
  bgp::Partition partition;  ///< default: the single midplane 0
  int exit_code = 0;  ///< 0 = clean exit; informational only

  Usec runtime() const { return end_time - start_time; }
  int size_midplanes() const { return partition.midplane_count(); }
  bool running_at(TimePoint t) const { return start_time <= t && t < end_time; }
};

}  // namespace coral::joblog
