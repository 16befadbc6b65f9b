#include "coral/core/checkpoint.hpp"

#include <cmath>
#include <set>

#include "coral/common/error.hpp"

namespace coral::core {

Usec young_interval(Usec overhead, double mtti_sec) {
  CORAL_EXPECTS(overhead > 0 && mtti_sec > 0);
  const double sec = std::sqrt(2.0 * static_cast<double>(overhead) /
                               static_cast<double>(kUsecPerSec) * mtti_sec);
  return static_cast<Usec>(sec * static_cast<double>(kUsecPerSec));
}

CheckpointOutcome simulate_checkpointing(const CoAnalysisResult& analysis,
                                         const joblog::JobLog& jobs,
                                         const CheckpointPlan& plan) {
  CheckpointOutcome out;

  // Machine-wide system MTTI; per-job intervals scale it by width.
  const bool young_mode = plan.mode == CheckpointMode::YoungFromMtti ||
                          plan.mode == CheckpointMode::YoungSkipFirstHour;
  const double machine_mtti_sec =
      analysis.interruptions_system.samples_sec.size() >= 2
          ? analysis.interruptions_system.weibull.mean()
          : 24.0 * 3600.0;

  // Executables with an application-error interruption history, and when
  // that history started (the Obs.-9/11 rule is causal: it only applies to
  // runs *after* the first observed application error of that executable).
  std::map<joblog::ExecId, TimePoint> app_error_since;
  for (const Interruption& in : analysis.matches.interruptions) {
    const auto code =
        analysis.filtered.fatal_events[analysis.filtered.groups[in.group].rep].errcode;
    const auto it = analysis.classification.by_code.find(code);
    if (it == analysis.classification.by_code.end() ||
        it->second.cause != Cause::ApplicationError) {
      continue;
    }
    const joblog::ExecId exec = jobs[in.job].exec_id;
    const auto existing = app_error_since.find(exec);
    if (existing == app_error_since.end() || in.time < existing->second) {
      app_error_since[exec] = in.time;
    }
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const joblog::JobRecord& job = jobs[j];
    const double width = job.size_midplanes();
    const auto runtime = job.runtime();
    const bool interrupted = analysis.matches.group_by_job[j] >= 0;

    // Per-job interval: a W-midplane job on an N-midplane machine intercepts
    // roughly W/N of the machine's interruptions, so its MTTI is the machine
    // MTTI scaled up by N/W (wider jobs checkpoint more often; narrow short
    // jobs often not at all).
    Usec interval = plan.interval;
    if (young_mode) {
      const double job_mtti =
          machine_mtti_sec * jobs.machine().midplane_count() / width;
      interval = young_interval(plan.overhead, job_mtti);
    }

    if (plan.mode == CheckpointMode::None) {
      if (interrupted) {
        out.lost_node_hours +=
            width * static_cast<double>(runtime) / static_cast<double>(kUsecPerHour);
      }
      continue;
    }

    // First checkpoint offset: the skip-first-hour rule delays the schedule
    // for flagged executables (most application errors strike early, so the
    // early checkpoints would be pure overhead).
    Usec first = interval;
    if (plan.mode == CheckpointMode::YoungSkipFirstHour) {
      const auto flag = app_error_since.find(job.exec_id);
      if (flag != app_error_since.end() && job.start_time > flag->second) {
        first = std::max<Usec>(interval, kUsecPerHour);
        ++out.skipped_first_hour_jobs;
      }
    }

    // Completed checkpoints strictly before the job ended.
    std::size_t n_ckpt = 0;
    if (runtime > first) {
      n_ckpt = 1 + static_cast<std::size_t>((runtime - first - 1) / interval);
    }
    out.checkpoints += n_ckpt;
    out.overhead_node_hours += width * static_cast<double>(n_ckpt) *
                               static_cast<double>(plan.overhead) /
                               static_cast<double>(kUsecPerHour);

    if (interrupted) {
      const Usec last_ckpt = n_ckpt == 0
                                 ? 0
                                 : first + static_cast<Usec>(n_ckpt - 1) * interval;
      out.lost_node_hours += width * static_cast<double>(runtime - last_ckpt) /
                             static_cast<double>(kUsecPerHour);
    }
  }
  return out;
}

}  // namespace coral::core
