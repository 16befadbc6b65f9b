#pragma once

#include <cstdint>

#include "coral/common/parallel.hpp"
#include "coral/core/matching.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"

namespace coral::core {

/// Per-analysis columnar inputs of the characterization stages (§IV-B..§VI-D).
///
/// The four stages downstream of matching — classification, job-related
/// filtering, propagation and vulnerability — all need each group's
/// representative (time, errcode, location) and which group interrupted
/// each job. This gathers both once, as flat vectors, so the stage hot
/// loops scan contiguous columns. Everything that depends only on the job
/// log (partition ranges, times, users, projects, resubmission chains) is
/// not copied here: the stages read it from JobLog::columns(), built once
/// per finalized log.
///
/// Invariants, all inherited from the producing layers:
///  - groups are ordered by representative event time (the front end emits
///    them in that order), so any stable bucketing of groups stays
///    time-ordered per bucket;
///  - matches.interruptions are ordered by job end time, one entry per
///    interrupted job.
struct CharColumns {
  // --- per filtered group (gathered from the representative record) ------
  std::vector<TimePoint> group_time;        ///< rep event_time
  std::vector<ras::ErrcodeId> group_code;   ///< rep errcode
  std::vector<std::uint32_t> group_loc;     ///< rep Location::packed() key

  // --- per job -----------------------------------------------------------
  /// Interrupting group index, or -1 when the job completed cleanly
  /// (matches.group_by_job without the std::optional indirection).
  std::vector<std::int32_t> job_group;

  std::size_t group_count() const { return group_time.size(); }
  std::size_t job_count() const { return job_group.size(); }
};

/// Gather the per-analysis columns once per co-analysis, in two serial
/// fills. `pool` is ignored; it stays because the e2e benchmark package
/// compiles against it.
CharColumns build_char_columns(const filter::FilterPipelineResult& filtered,
                               const MatchResult& matches, const joblog::JobLog& jobs,
                               par::ThreadPool* pool = nullptr);

}  // namespace coral::core
