#include "coral/joblog/log.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "coral/common/csv.hpp"
#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"
#include "coral/obs/obs.hpp"

namespace coral::joblog {

namespace {

std::int32_t intern(const std::string& value, std::vector<std::string>& table,
                    std::unordered_map<std::string, std::int32_t>& index) {
  const auto it = index.find(value);
  if (it != index.end()) return it->second;
  const auto id = static_cast<std::int32_t>(table.size());
  table.push_back(value);
  index.emplace(value, id);
  return id;
}

}  // namespace

ExecId JobLog::intern_exec(const std::string& path) {
  return intern(path, exec_files_, exec_index_);
}
UserId JobLog::intern_user(const std::string& name) {
  return intern(name, users_, user_index_);
}
ProjectId JobLog::intern_project(const std::string& name) {
  return intern(name, projects_, project_index_);
}

void JobLog::append(JobRecord job) {
  CORAL_EXPECTS(job.end_time >= job.start_time);
  CORAL_EXPECTS(job.exec_id >= 0 &&
                static_cast<std::size_t>(job.exec_id) < exec_files_.size());
  finalized_ = false;
  jobs_.push_back(job);
}

void JobLog::finalize() {
  const auto by_start = [](const JobRecord& a, const JobRecord& b) {
    return a.start_time < b.start_time;
  };
  // A decoded log arrives in start order (the writers write the finalized
  // order), and a stable sort of a sorted range is the identity, so only
  // out-of-order appends pay for it — the rule RasLog::finalize() follows.
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), by_start)) {
    std::stable_sort(jobs_.begin(), jobs_.end(), by_start);
  }
  // Sort contiguous (end, index) keys: comparing them reads 16 bytes, where
  // an index sort would chase two whole JobRecords per comparison.
  std::vector<std::pair<std::int64_t, std::size_t>> keys(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) keys[i] = {jobs_[i].end_time.usec(), i};
  std::sort(keys.begin(), keys.end());
  by_end_.resize(jobs_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) by_end_[i] = keys[i].second;
  interval_ = IntervalIndex(jobs_, machine_->midplane_count());
  build_columns();
  finalized_ = true;
}

void JobLog::build_columns() {
  const std::size_t n = jobs_.size();
  JobColumns& c = columns_;
  c.part_first.resize(n);
  c.part_end.resize(n);
  c.queue.resize(n);
  c.start.resize(n);
  c.end.resize(n);
  c.user.resize(n);
  c.project.resize(n);
  // Chains: a stable counting scatter by exec id over the start-ordered
  // jobs, so every chain is a contiguous start-ordered slice. append()
  // guarantees every exec id indexes exec_files_.
  const std::size_t n_exec = exec_files_.size();
  c.chain_offset.assign(n_exec + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const JobRecord& job = jobs_[j];
    c.part_first[j] = job.partition.first_midplane();
    c.part_end[j] = job.partition.end_midplane();
    c.queue[j] = job.queue_time;
    c.start[j] = job.start_time;
    c.end[j] = job.end_time;
    c.user[j] = job.user_id;
    c.project[j] = job.project_id;
    c.chain_offset[static_cast<std::size_t>(job.exec_id) + 1] += 1;
  }
  summary_ = {};
  summary_.total_jobs = n;
  for (std::size_t e = 0; e < n_exec; ++e) {
    const std::uint32_t submits = c.chain_offset[e + 1];  // count, not yet a prefix
    if (submits > 0) summary_.distinct_jobs += 1;
    if (submits > 1) summary_.resubmitted_jobs += 1;
    c.chain_offset[e + 1] += c.chain_offset[e];
  }
  c.chain_job.resize(n);
  std::vector<std::uint32_t> cursor(c.chain_offset.begin(), c.chain_offset.end() - 1);
  for (std::size_t j = 0; j < n; ++j) {
    c.chain_job[cursor[static_cast<std::size_t>(jobs_[j].exec_id)]++] =
        static_cast<std::uint32_t>(j);
  }
  if (n != 0) {
    summary_.first_submit = *std::min_element(c.queue.begin(), c.queue.end());
    summary_.last_end = *std::max_element(c.end.begin(), c.end.end());
  }
}

const std::vector<std::size_t>& JobLog::by_end_time() const {
  CORAL_EXPECTS(finalized_);
  return by_end_;
}

const IntervalIndex& JobLog::interval_index() const {
  CORAL_EXPECTS(finalized_ || jobs_.empty());
  return interval_;
}

const JobColumns& JobLog::columns() const {
  CORAL_EXPECTS(finalized_ || jobs_.empty());
  return columns_;
}

namespace {

// Jobs in one interval-index bucket that are running at `t`, descending job
// index (the caller reverses or merges): a backward scan from the last job
// started by `t`, bounded by the bucket's running max of end times.
void bucket_running_at(const IntervalIndex::StartSlice& s, TimePoint t,
                       std::vector<std::size_t>& out) {
  const auto it = std::upper_bound(s.start_time.begin(), s.start_time.end(), t);
  for (auto i = static_cast<std::ptrdiff_t>(it - s.start_time.begin()) - 1; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    if (s.max_end[k] <= t) break;  // nothing earlier in the bucket can still run
    if (s.end_time[k] > t) out.push_back(s.job[k]);
  }
}

}  // namespace

std::vector<std::size_t> JobLog::running_on(TimePoint t,
                                            machine::MidplaneRange midplanes) const {
  CORAL_EXPECTS(finalized_);
  CORAL_EXPECTS(midplanes.first >= 0 && midplanes.end <= machine_->midplane_count());
  if (jobs_.empty()) return {};
  std::vector<std::size_t> out;
  for (bgp::MidplaneId m = midplanes.first; m < midplanes.end; ++m) {
    bucket_running_at(interval_.starts(m), t, out);
  }
  if (midplanes.size() == 1) {
    std::reverse(out.begin(), out.end());
    return out;
  }
  // Several midplanes (a rack, a partition): a multi-midplane partition can
  // sit in several buckets, so merge and dedupe.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::size_t> JobLog::running_at(TimePoint t, const bgp::Location& loc) const {
  return running_on(t, machine_->codec().midplanes(loc.packed()));
}

std::vector<std::size_t> JobLog::running_at(TimePoint t, const bgp::Partition& part) const {
  return running_on(t, {part.first_midplane(), part.end_midplane()});
}

JobLogSummary JobLog::summary() const {
  CORAL_EXPECTS(finalized_ || jobs_.empty());
  JobLogSummary s = summary_;
  s.users = users_.size();
  s.projects = projects_.size();
  return s;
}

void JobLog::write_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.write_row({"JOB_ID", "EXEC_FILE", "USER", "PROJECT", "QUEUE_TIME", "START_TIME",
               "END_TIME", "LOCATION", "EXIT"});
  for (const auto& j : jobs_) {
    w.write_row({std::to_string(j.job_id), exec_files_[static_cast<std::size_t>(j.exec_id)],
                 users_[static_cast<std::size_t>(j.user_id)],
                 projects_[static_cast<std::size_t>(j.project_id)],
                 strformat("%.2f", j.queue_time.unix_seconds()),
                 strformat("%.2f", j.start_time.unix_seconds()),
                 strformat("%.2f", j.end_time.unix_seconds()), machine_->partition_name(j.partition),
                 std::to_string(j.exit_code)});
  }
}

namespace {

std::string row_snippet(const std::vector<std::string>& row) {
  std::string s;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ',';
    s += row[i];
    if (s.size() > 64) break;
  }
  return s;
}

// Unix-second fields far outside the plausible log range would make llround
// in from_unix_seconds implementation-defined; reject them as unparseable.
TimePoint parse_job_time(const std::string& field) {
  const double sec = parse_double(field);
  if (!(sec > -1e12 && sec < 1e13)) {
    throw ParseError("job time out of range: '" + field + "'");
  }
  return TimePoint::from_unix_seconds(sec);
}

}  // namespace

JobLog JobLog::read_csv(std::istream& in, ParseMode mode, IngestReport* report,
                        obs::Collector* obs, const machine::MachineModel& machine) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  obs::Span span(obs, "ingest.job_csv");

  CsvReader r(in, ',', mode, &rep);
  std::vector<std::string> row;
  if (!r.read_row(row)) throw ParseError("empty job CSV");
  if (row.size() != 9 || row[0] != "JOB_ID") throw ParseError("bad job CSV header");
  JobLog log(machine);
  while (r.read_row(row)) {
    if (row.size() == 1 && row[0].empty()) continue;
    const std::uint64_t offset = r.row_offset();
    if (row.size() != 9) {
      if (mode == ParseMode::Strict) throw ParseError("bad job CSV row width");
      rep.add_malformed(IngestReason::RowWidth, offset, row_snippet(row),
                        "expected 9 fields, got " + std::to_string(row.size()));
      continue;
    }
    // Parse every throwing field before interning, so a rejected row leaves
    // no stray entries in the string tables.
    JobRecord j;
    IngestReason reason = IngestReason::BadRecord;
    try {
      reason = IngestReason::BadNumber;
      j.job_id = parse_int(row[0]);
      reason = IngestReason::BadTimestamp;
      j.queue_time = parse_job_time(row[4]);
      j.start_time = parse_job_time(row[5]);
      j.end_time = parse_job_time(row[6]);
      reason = IngestReason::BadLocation;
      j.partition = machine.parse_partition(row[7]);
      reason = IngestReason::BadNumber;
      j.exit_code = static_cast<int>(parse_int(row[8]));
    } catch (const Error& e) {
      if (mode == ParseMode::Strict) throw;
      rep.add_malformed(reason, offset, row_snippet(row), e.what());
      continue;
    }
    if (mode == ParseMode::Lenient && j.end_time < j.start_time) {
      rep.add_malformed(IngestReason::BadRecord, offset, row_snippet(row),
                        "job ends before it starts");
      continue;
    }
    j.exec_id = log.intern_exec(row[1]);
    j.user_id = log.intern_user(row[2]);
    j.project_id = log.intern_project(row[3]);
    log.append(j);
    rep.add_ok();
  }
  log.finalize();
  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(obs, "ingest.job_csv");
  return log;
}

}  // namespace coral::joblog
