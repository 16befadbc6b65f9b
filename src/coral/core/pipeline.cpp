#include "coral/core/pipeline.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "coral/common/error.hpp"
#include "coral/obs/obs.hpp"
#include "coral/stream/accumulators.hpp"
#include "coral/stream/coanalysis.hpp"

namespace coral::core {

namespace {

/// The vulnerability ranking and the per-day series are defined over the
/// job log, so an analysis without a single job is refused up front, with
/// a message about the input rather than a failed precondition deep inside.
void require_jobs(const joblog::JobLog& jobs) {
  if (jobs.empty()) {
    throw InvalidArgument("co-analysis needs at least one job; the job log is empty");
  }
}

}  // namespace

IngestedLogs ingest_csv_logs(std::istream& ras_in, std::istream& jobs_in, ParseMode mode,
                             const Context& ctx) {
  IngestedLogs logs;
  logs.ras = ras::RasLog::read_csv(ras_in, ctx.catalog(), mode, &logs.ras_report,
                                   ctx.obs(), ctx.machine());
  logs.jobs = joblog::JobLog::read_csv(jobs_in, mode, &logs.jobs_report, ctx.obs(),
                                       ctx.machine());
  return logs;
}

CoAnalysisResult complete_coanalysis(filter::FilterPipelineResult filtered,
                                     MatchResult matches, const joblog::JobLog& jobs,
                                     const CoAnalysisConfig& config, const Context& ctx) {
  require_jobs(jobs);
  CoAnalysisResult r;
  r.machine_ = &jobs.machine();
  r.filtered = std::move(filtered);
  r.matches = std::move(matches);

  obs::Collector* obs = ctx.obs();

  // Step 1 (continued): identify the interruption-related errcodes (§IV-A).
  {
    obs::Span span(obs, "identification");
    r.identification =
        identify_interruption_related(r.filtered, r.matches, jobs, config.identification);
    span.counts(r.filtered.groups.size(), r.identification.verdicts.size());
  }

  // Per-analysis columnar inputs of the characterization stages: gathered
  // once, scanned by classification, job filter, propagation and
  // vulnerability next to the job log's own columns.
  CharColumns cols;
  {
    obs::Span span(obs, "char.columns");
    cols = build_char_columns(r.filtered, r.matches, jobs);
    span.counts(cols.group_count() + jobs.size(), r.matches.interruptions.size());
  }

  // Step 2: separate system failures from application errors (§IV-B).
  {
    obs::Span span(obs, "classification");
    r.classification = classify_causes(r.filtered, r.matches, r.identification, jobs,
                                       cols, config.classification);
    span.counts(r.identification.verdicts.size(), r.classification.by_code.size());
  }

  // Step 3: job-related filtering (§IV-C).
  {
    obs::Span span(obs, "job_filter");
    r.job_filter = job_related_filter(r.filtered, r.matches, r.classification, jobs,
                                      cols, config.job_filter);
    span.counts(r.filtered.groups.size(), r.job_filter.kept.size());
  }

  // Characterization: propagation and vulnerability (§VI-C, §VI-D).
  {
    obs::Span span(obs, "propagation");
    r.propagation =
        analyze_propagation(r.filtered, r.matches, jobs, cols, config.propagation);
    span.counts(r.matches.interruptions.size(), r.propagation.propagating_codes.size());
  }
  {
    obs::Span span(obs, "vulnerability");
    r.vulnerability =
        analyze_vulnerability(r.filtered, r.matches, r.classification, jobs, cols,
                              config.vulnerability);
    span.counts(r.matches.interruptions.size(), jobs.size());
  }

  // Interarrival fits: a series of fewer than 3 times leaves its fit at
  // the default (no interarrival pair to fit).
  const auto fit = [](const std::vector<TimePoint>& times, InterarrivalFit& out) {
    if (times.size() >= 3) out = fit_interarrivals(interarrival_seconds(times));
  };
  const auto rep_time = [&](std::size_t g) {
    return r.filtered.fatal_events[r.filtered.groups[g].rep].event_time;
  };

  // Fatal-event interarrivals before and after job-related filtering
  // (§V-A, Table IV; Fig. 3), in group order.
  std::vector<TimePoint> times;
  for (std::size_t g = 0; g < r.filtered.groups.size(); ++g) times.push_back(rep_time(g));
  fit(times, r.fatal_before_jobfilter);
  times.clear();
  for (const std::size_t g : r.job_filter.kept) times.push_back(rep_time(g));
  fit(times, r.fatal_after_jobfilter);

  // Interruption interarrivals by cause (§VI-B, Table V; Fig. 6).
  std::vector<TimePoint> sys, app;
  for (const Interruption& in : r.matches.interruptions) {
    const ras::ErrcodeId code =
        r.filtered.fatal_events[r.filtered.groups[in.group].rep].errcode;
    const bool is_app = r.classification.by_code.count(code) != 0 &&
                        r.classification.by_code.at(code).cause == Cause::ApplicationError;
    (is_app ? app : sys).push_back(in.time);
  }
  r.system_interruptions = sys.size();
  r.application_interruptions = app.size();
  fit(sys, r.interruptions_system);
  fit(app, r.interruptions_application);

  // Distinct interrupted executables (paper: 308 jobs, 167 distinct).
  std::set<joblog::ExecId> distinct;
  for (const Interruption& in : r.matches.interruptions) {
    distinct.insert(jobs[in.job].exec_id);
  }
  r.distinct_interrupted_jobs = distinct.size();

  // Fig. 5: interruptions per day. The job log's first submission anchors
  // day 0, and at least one bucket is always materialized.
  stream::DailyCounter daily(jobs.summary().first_submit);
  for (const Interruption& in : r.matches.interruptions) daily.add(in.time);
  daily.ensure_days(1);
  r.interruptions_per_day = daily.take();

  // Fig. 4 series.
  stream::MidplaneTallies tallies(jobs.machine());
  for (const filter::EventGroup& g : r.filtered.groups) {
    tallies.add_group_rep(r.filtered.fatal_events[g.rep].location);
  }
  for (const joblog::JobRecord& job : jobs) tallies.add_job(job);
  r.fatal_events_per_midplane = tallies.fatal_events;
  r.workload_per_midplane = tallies.workload_sec;
  r.wide_workload_per_midplane = tallies.wide_workload_sec;
  return r;
}

CoAnalysisResult run_coanalysis(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                const CoAnalysisConfig& config, const Context& ctx) {
  require_jobs(jobs);
  stream::FrontEndConfig fe;
  fe.filters = config.filters;
  fe.match_window = config.matching.window;
  stream::FrontEndResult front = stream::run_streaming_frontend(ras, jobs, fe, ctx);
  CoAnalysisResult r = complete_coanalysis(std::move(front.filtered), std::move(front.matches),
                                           jobs, config, ctx);
  r.peak_stage_state = front.peak_stage_state;
  return r;
}

}  // namespace coral::core
