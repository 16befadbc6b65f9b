#include "coral/joblog/stats.hpp"

#include <algorithm>

#include "coral/common/error.hpp"

namespace coral::joblog {

namespace {

std::size_t size_class(const std::vector<int>& sizes, int midplanes) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == midplanes) return i;
  }
  throw InvalidArgument("unexpected job size: " + std::to_string(midplanes));
}

}  // namespace

WorkloadStats workload_stats(const JobLog& jobs) {
  const machine::MachineModel& machine = jobs.machine();
  const std::vector<int>& sizes = machine.legal_partition_sizes();
  const int wide_threshold = machine.placement_zones().wide_threshold;
  WorkloadStats s;
  s.midplane_busy_sec.assign(static_cast<std::size_t>(machine.midplane_count()), 0.0);
  s.midplane_wide_sec.assign(static_cast<std::size_t>(machine.midplane_count()), 0.0);
  s.jobs_per_size.assign(sizes.size(), 0);
  if (jobs.empty()) return s;

  TimePoint first = jobs[0].start_time;
  TimePoint last = jobs[0].end_time;
  double wait_sum = 0;
  for (const JobRecord& job : jobs) {
    const double sec =
        static_cast<double>(job.runtime()) / static_cast<double>(kUsecPerSec);
    const bool wide = job.size_midplanes() >= wide_threshold;
    for (bgp::MidplaneId m = job.partition.first_midplane(); m < job.partition.end_midplane();
         ++m) {
      s.midplane_busy_sec[static_cast<std::size_t>(m)] += sec;
      if (wide) s.midplane_wide_sec[static_cast<std::size_t>(m)] += sec;
    }
    s.jobs_per_size[size_class(sizes, job.size_midplanes())] += 1;
    wait_sum += static_cast<double>(job.start_time - job.queue_time) /
                static_cast<double>(kUsecPerSec);
    first = std::min(first, job.start_time);
    last = std::max(last, job.end_time);
  }
  double busy = 0;
  for (double b : s.midplane_busy_sec) busy += b;
  const double wall = static_cast<double>(last - first) / static_cast<double>(kUsecPerSec);
  if (wall > 0) {
    s.utilization = busy / (wall * machine.midplane_count());
  }
  s.mean_wait_sec = wait_sum / static_cast<double>(jobs.size());
  return s;
}

std::map<UserId, PartyStats> stats_by_user(const JobLog& jobs) {
  std::map<UserId, PartyStats> out;
  for (const JobRecord& job : jobs) {
    PartyStats& p = out[job.user_id];
    p.jobs += 1;
    p.node_seconds += static_cast<double>(job.runtime()) /
                      static_cast<double>(kUsecPerSec) * job.size_midplanes();
  }
  return out;
}

std::map<ProjectId, PartyStats> stats_by_project(const JobLog& jobs) {
  std::map<ProjectId, PartyStats> out;
  for (const JobRecord& job : jobs) {
    PartyStats& p = out[job.project_id];
    p.jobs += 1;
    p.node_seconds += static_cast<double>(job.runtime()) /
                      static_cast<double>(kUsecPerSec) * job.size_midplanes();
  }
  return out;
}

std::vector<double> utilization_timeline(const JobLog& jobs, TimePoint begin,
                                         TimePoint end, Usec step) {
  CORAL_EXPECTS(step > 0);
  CORAL_EXPECTS(end > begin);
  const auto n = static_cast<std::size_t>((end - begin + step - 1) / step);
  // Time-weighted busy midplanes per bucket.
  std::vector<double> busy(n, 0.0);
  for (const JobRecord& job : jobs) {
    if (job.end_time <= begin || job.start_time >= end) continue;
    const Usec s0 = std::max<Usec>(0, job.start_time - begin);
    const Usec e0 = std::min<Usec>(end - begin, job.end_time - begin);
    const auto b0 = static_cast<std::size_t>(s0 / step);
    const auto b1 = std::min(n - 1, static_cast<std::size_t>((e0 - 1) / step));
    for (std::size_t b = b0; b <= b1; ++b) {
      const Usec bucket_begin = static_cast<Usec>(b) * step;
      const Usec bucket_end = std::min<Usec>(end - begin, bucket_begin + step);
      const Usec overlap = std::min(e0, bucket_end) - std::max(s0, bucket_begin);
      busy[b] += static_cast<double>(job.size_midplanes()) *
                 static_cast<double>(overlap) / static_cast<double>(bucket_end - bucket_begin);
    }
  }
  for (double& b : busy) b /= jobs.machine().midplane_count();
  return busy;
}

}  // namespace coral::joblog
