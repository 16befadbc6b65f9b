#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "coral/common/ingest.hpp"
#include "coral/joblog/interval_index.hpp"
#include "coral/joblog/job.hpp"
#include "coral/machine/model.hpp"

namespace coral::joblog {

/// Summary counts for a job log (Table I / §III-B material).
struct JobLogSummary {
  std::size_t total_jobs = 0;
  std::size_t distinct_jobs = 0;       ///< distinct execution files
  std::size_t resubmitted_jobs = 0;    ///< exec files submitted more than once
  std::size_t users = 0;
  std::size_t projects = 0;
  TimePoint first_submit;
  TimePoint last_end;
};

/// Structure-of-arrays view of the jobs, built once by JobLog::finalize()
/// (as ras::FatalColumns is by RasLog::finalize()). Row j describes job j
/// of the finalized log, so every column is in start order. The
/// characterization stages read the fields they need from these columns
/// instead of striding through whole JobRecords.
struct JobColumns {
  /// Partition footprint as a half-open midplane range [first, end).
  std::vector<std::int32_t> part_first;
  std::vector<std::int32_t> part_end;
  std::vector<TimePoint> queue;  ///< queue_time
  std::vector<TimePoint> start;  ///< start_time (ascending)
  std::vector<TimePoint> end;    ///< end_time
  std::vector<UserId> user;
  std::vector<ProjectId> project;

  /// Resubmission chains: the jobs of each execution file, as a CSR over
  /// ExecIds. Exec e owns chain_job[chain_offset[e] .. chain_offset[e+1]),
  /// in ascending job index (= start) order.
  std::vector<std::uint32_t> chain_offset;
  std::vector<std::uint32_t> chain_job;

  std::size_t size() const { return start.size(); }
  /// The jobs of exec `e`, in start order.
  std::span<const std::uint32_t> chain(std::size_t e) const {
    return {chain_job.data() + chain_offset[e], chain_offset[e + 1] - chain_offset[e]};
  }
};

/// An in-memory job log: records sorted by start time, plus the string
/// tables for execution files, users and projects. A log remembers the
/// machine its partitions were parsed against (default: reference BG/P).
class JobLog {
 public:
  JobLog() = default;
  explicit JobLog(const machine::MachineModel& machine) : machine_(&machine) {}

  /// The machine this log's partitions belong to.
  const machine::MachineModel& machine() const { return *machine_; }

  /// Intern an execution-file path, returning its ExecId.
  ExecId intern_exec(const std::string& path);
  /// Intern a user name.
  UserId intern_user(const std::string& name);
  /// Intern a project name.
  ProjectId intern_project(const std::string& name);

  void append(JobRecord job);
  /// Pre-size for `n` appends (a decoder that knows the declared total).
  void reserve(std::size_t n) { jobs_.reserve(n); }

  /// Sort by start time; must be called before queries.
  void finalize();

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const JobRecord& operator[](std::size_t i) const { return jobs_[i]; }
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  auto begin() const { return jobs_.begin(); }
  auto end() const { return jobs_.end(); }

  const std::vector<std::string>& exec_files() const { return exec_files_; }
  const std::vector<std::string>& users() const { return users_; }
  const std::vector<std::string>& projects() const { return projects_; }

  /// Indices of jobs running at time `t` whose partition covers `loc`,
  /// ascending. Answered from the interval index: a bounded backward scan
  /// of each midplane bucket in the location's footprint.
  std::vector<std::size_t> running_at(TimePoint t, const bgp::Location& loc) const;

  /// Indices of jobs running at `t` on any midplane of `part`, ascending;
  /// the same bucket scan over the partition's midplanes.
  std::vector<std::size_t> running_at(TimePoint t, const bgp::Partition& part) const;

  /// Job indices ordered by (end_time, index). Maintained by finalize() so
  /// streaming consumers can walk terminations without re-sorting per run.
  const std::vector<std::size_t>& by_end_time() const;

  /// Per-midplane interval index over the jobs, maintained by finalize().
  /// The matching hot loop slices it instead of scanning every in-window job.
  const IntervalIndex& interval_index() const;

  /// Columnar view of the jobs and their resubmission chains, maintained by
  /// finalize().
  const JobColumns& columns() const;

  /// Table I counts. Computed by finalize(); the user and project counts
  /// are the current string-table sizes.
  JobLogSummary summary() const;

  /// CSV with the Table III column set:
  /// JOB_ID,EXEC_FILE,USER,PROJECT,QUEUE_TIME,START_TIME,END_TIME,LOCATION,EXIT
  void write_csv(std::ostream& out) const;

  /// Load a job CSV. Strict mode (the default) throws ParseError on the
  /// first malformed byte; lenient mode skips-and-counts malformed rows into
  /// `report` and resynchronizes at the next row boundary. With an `obs`
  /// collector, an "ingest.job_csv" span plus per-reason malformed counters
  /// are recorded.
  /// Partition names are validated against `machine`'s partition algebra;
  /// the returned log is stamped with that model.
  static JobLog read_csv(std::istream& in, ParseMode mode = ParseMode::Strict,
                         IngestReport* report = nullptr,
                         obs::Collector* obs = nullptr,
                         const machine::MachineModel& machine = machine::bgp_model());

 private:
  /// Jobs running at `t` on any midplane of [first, end), ascending.
  std::vector<std::size_t> running_on(TimePoint t, machine::MidplaneRange midplanes) const;
  /// Fill columns_ and summary_ from the sorted jobs_ (part of finalize()).
  void build_columns();

  const machine::MachineModel* machine_ = &machine::bgp_model();
  std::vector<JobRecord> jobs_;
  std::vector<std::string> exec_files_;
  std::vector<std::string> users_;
  std::vector<std::string> projects_;
  std::unordered_map<std::string, std::int32_t> exec_index_;
  std::unordered_map<std::string, std::int32_t> user_index_;
  std::unordered_map<std::string, std::int32_t> project_index_;
  std::vector<std::size_t> by_end_;  ///< indices sorted by (end_time, index)
  IntervalIndex interval_;           ///< per-midplane buckets over jobs_
  JobColumns columns_;               ///< SoA view of jobs_
  JobLogSummary summary_;            ///< job-derived summary fields
  bool finalized_ = false;
};

}  // namespace coral::joblog
