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
/// representative (time, errcode, location). This gathers it once, as flat
/// vectors, so the stage hot loops scan contiguous columns. Which group
/// interrupted each job is already a flat column,
/// MatchResult::group_by_job, and everything that depends only on the job
/// log (partition ranges, times, users, projects, resubmission chains) is
/// not copied here either: the stages read it from JobLog::columns(), built
/// once per finalized log.
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

  std::size_t group_count() const { return group_time.size(); }
};

/// Gather the per-group columns once per co-analysis, in one serial fill.
/// `matches`, `jobs` and `pool` are not read; they stay because the e2e
/// benchmark package compiles against this signature.
CharColumns build_char_columns(const filter::FilterPipelineResult& filtered,
                               const MatchResult& matches, const joblog::JobLog& jobs,
                               par::ThreadPool* pool = nullptr);

}  // namespace coral::core
