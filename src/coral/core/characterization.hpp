#pragma once

#include <cstdint>

#include "coral/common/parallel.hpp"
#include "coral/core/matching.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"

namespace coral::core {

/// Shared columnar inputs of the characterization stages (§IV-B..§VI-D).
///
/// The four stages downstream of matching — classification, job-related
/// filtering, propagation and vulnerability — all re-derived the same
/// lookups from the AoS results: which group interrupted each job, each
/// group's representative (time, errcode, location), which jobs survived,
/// and the per-executable resubmission chains. This gathers every one of
/// them once, as flat sorted vectors and CSR buckets over packed ids, so
/// the stage hot loops scan contiguous columns instead of rebuilding
/// std::map/std::set accumulations per stage.
///
/// Invariants, all inherited from the producing layers:
///  - groups are ordered by representative event time (the front end emits
///    them in that order), so any stable bucketing of groups stays
///    time-ordered per bucket;
///  - jobs are ordered by start time (JobLog::finalize), so survivors and
///    chain buckets are start-ordered for free;
///  - matches.interruptions are ordered by job end time.
struct CharColumns {
  // --- per filtered group (gathered from the representative record) ------
  std::vector<TimePoint> group_time;        ///< rep event_time
  std::vector<ras::ErrcodeId> group_code;   ///< rep errcode
  std::vector<std::uint32_t> group_loc;     ///< rep Location::packed() key

  // --- per job -----------------------------------------------------------
  /// Interrupting group index, or -1 when the job completed cleanly
  /// (matches.group_by_job without the std::optional indirection).
  std::vector<std::int32_t> job_group;
  /// Partition footprint as a half-open midplane range [first, end).
  std::vector<std::int32_t> job_part_first;
  std::vector<std::int32_t> job_part_end;
  std::vector<TimePoint> job_queue;  ///< queue_time
  std::vector<TimePoint> job_start;  ///< start_time (ascending — JobLog order)
  std::vector<TimePoint> job_end;    ///< end_time
  std::vector<std::int32_t> job_user;
  std::vector<std::int32_t> job_project;

  // --- survivors (jobs with no interrupting group), in start order -------
  std::vector<std::uint32_t> survivor_job;
  std::vector<TimePoint> survivor_start;    ///< ascending
  std::vector<TimePoint> survivor_end;      ///< parallel, unordered
  std::vector<std::int32_t> survivor_first; ///< partition range begin
  std::vector<std::int32_t> survivor_last;  ///< partition range end (exclusive)

  // --- resubmission chains: jobs bucketed by ExecId, start order ---------
  /// CSR: exec e owns chain_job[chain_offset[e] .. chain_offset[e+1]).
  /// Buckets are built by a stable counting scatter over the start-ordered
  /// job list, so every chain is a contiguous start-ordered slice.
  std::vector<std::uint32_t> chain_offset;
  std::vector<std::uint32_t> chain_job;

  std::size_t group_count() const { return group_time.size(); }
  std::size_t job_count() const { return job_group.size(); }
  std::size_t exec_count() const {
    return chain_offset.empty() ? 0 : chain_offset.size() - 1;
  }
};

/// Gather the shared columns once per co-analysis. `pool` fans the per-job
/// fills over worker threads; results are identical with or without it.
CharColumns build_char_columns(const filter::FilterPipelineResult& filtered,
                               const MatchResult& matches, const joblog::JobLog& jobs,
                               par::ThreadPool* pool = nullptr);

}  // namespace coral::core
