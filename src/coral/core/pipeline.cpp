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
  par::ThreadPool* pool = ctx.pool();

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
    cols = build_char_columns(r.filtered, r.matches, jobs, pool);
    span.counts(cols.group_count() + cols.job_count(), r.matches.interruptions.size());
  }

  // Step 2: separate system failures from application errors (§IV-B).
  {
    obs::Span span(obs, "classification");
    r.classification = classify_causes(r.filtered, r.matches, r.identification, jobs,
                                       cols, config.classification, pool);
    span.counts(r.identification.verdicts.size(), r.classification.by_code.size());
  }

  // Step 3: job-related filtering (§IV-C).
  {
    obs::Span span(obs, "job_filter");
    r.job_filter = job_related_filter(r.filtered, r.matches, r.classification, jobs,
                                      cols, config.job_filter, pool);
    span.counts(r.filtered.groups.size(), r.job_filter.kept.size());
  }

  // Characterization: propagation and vulnerability (§VI-C, §VI-D).
  {
    obs::Span span(obs, "propagation");
    r.propagation =
        analyze_propagation(r.filtered, r.matches, jobs, cols, config.propagation, pool);
    span.counts(r.matches.interruptions.size(), r.propagation.propagating_codes.size());
  }
  {
    obs::Span span(obs, "vulnerability");
    r.vulnerability =
        analyze_vulnerability(r.filtered, r.matches, r.classification, jobs, cols,
                              config.vulnerability, pool);
    span.counts(r.matches.interruptions.size(), jobs.size());
  }

  // Interarrival fits (§V-A, Table IV; Fig. 3), via the incremental
  // accumulators, fed in group order.
  stream::InterarrivalAccumulator before_filter, after_filter;
  for (const filter::EventGroup& g : r.filtered.groups) {
    before_filter.add(r.filtered.fatal_events[g.rep].event_time);
  }
  for (const std::size_t idx : r.job_filter.kept) {
    after_filter.add(r.filtered.fatal_events[r.filtered.groups[idx].rep].event_time);
  }
  if (auto fit = before_filter.fit()) r.fatal_before_jobfilter = std::move(*fit);
  if (auto fit = after_filter.fit()) r.fatal_after_jobfilter = std::move(*fit);

  // Interruption interarrivals by cause (§VI-B, Table V; Fig. 6).
  stream::InterarrivalAccumulator sys_acc, app_acc;
  for (const Interruption& in : r.matches.interruptions) {
    const ras::ErrcodeId code =
        r.filtered.fatal_events[r.filtered.groups[in.group].rep].errcode;
    const bool app = r.classification.by_code.count(code) != 0 &&
                     r.classification.by_code.at(code).cause == Cause::ApplicationError;
    (app ? app_acc : sys_acc).add(in.time);
  }
  r.system_interruptions = sys_acc.count();
  r.application_interruptions = app_acc.count();
  if (auto fit = sys_acc.fit()) r.interruptions_system = std::move(*fit);
  if (auto fit = app_acc.fit()) r.interruptions_application = std::move(*fit);

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
  fe.shards = config.execution.shards;
  stream::FrontEndResult front = stream::run_streaming_frontend(ras, jobs, fe, ctx);
  CoAnalysisResult r = complete_coanalysis(std::move(front.filtered), std::move(front.matches),
                                           jobs, config, ctx);
  r.shards_used = front.shards_used;
  r.peak_stage_state = front.peak_stage_state;
  return r;
}

}  // namespace coral::core
