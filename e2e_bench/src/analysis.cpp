#include "analysis.hpp"

#include <set>
#include <utility>

#include "coral/core/characterization.hpp"
#include "coral/fleet/fingerprint.hpp"
#include "coral/stream/accumulators.hpp"
#include "coral/stream/coanalysis.hpp"

namespace e2e {

using namespace coral;

Reference Reference::of(const core::CoAnalysisResult& r) {
  return {fleet::result_fingerprint(r), r.filtered.groups.size(), r.interruption_count()};
}

bool Reference::matches(const core::CoAnalysisResult& r) const {
  return fleet::result_fingerprint(r) == result_fp;
}

core::CoAnalysisResult analyse(obs::Collector* trace, const ras::RasLog& ras,
                               const joblog::JobLog& jobs,
                               const core::CoAnalysisConfig& config, const Context& ctx) {
  if (trace == nullptr) return core::run_coanalysis(ras, jobs, config, ctx);

  obs::Collector* t = trace;
  par::ThreadPool* pool = ctx.pool();
  stream::FrontEndConfig fe;
  fe.filters = config.filters;
  fe.match_window = config.matching.window;
  fe.shards = config.execution.shards;
  stream::FrontEndResult front = traced(
      t, kFrontEnd, [&] { return stream::run_streaming_frontend(ras, jobs, fe, ctx); });

  core::CoAnalysisResult r;
  r.machine_ = &jobs.machine();
  r.filtered = std::move(front.filtered);
  r.matches = std::move(front.matches);
  r.identification = traced(t, kIdentify, [&] {
    return core::identify_interruption_related(r.filtered, r.matches, jobs,
                                               config.identification);
  });
  const core::CharColumns cols = traced(
      t, kCharColumns, [&] { return core::build_char_columns(r.filtered, r.matches, jobs, pool); });
  r.classification = traced(t, kClassify, [&] {
    return core::classify_causes(r.filtered, r.matches, r.identification, jobs, cols,
                                 config.classification, pool);
  });
  r.job_filter = traced(t, kJobFilter, [&] {
    return core::job_related_filter(r.filtered, r.matches, r.classification, jobs, cols,
                                    config.job_filter, pool);
  });
  r.propagation = traced(t, kPropagation, [&] {
    return core::analyze_propagation(r.filtered, r.matches, jobs, cols, config.propagation,
                                     pool);
  });
  r.vulnerability = traced(t, kVulnerability, [&] {
    return core::analyze_vulnerability(r.filtered, r.matches, r.classification, jobs, cols,
                                       config.vulnerability, pool);
  });

  // The four interarrival series, in the order and with the 3-sample
  // minimum complete_coanalysis uses.
  const auto fit = [&](const std::vector<TimePoint>& times, core::InterarrivalFit& out) {
    if (times.size() < 3) return;
    std::vector<double> samples =
        traced(t, kInterarrivalSeconds, [&] { return core::interarrival_seconds(times); });
    out = traced(t, kFitInterarrivals,
                 [&] { return core::fit_interarrivals(std::move(samples)); });
  };
  const auto rep_time = [&](std::size_t group) {
    return r.filtered.fatal_events[r.filtered.groups[group].rep].event_time;
  };
  std::vector<TimePoint> times;
  for (std::size_t g = 0; g < r.filtered.groups.size(); ++g) times.push_back(rep_time(g));
  fit(times, r.fatal_before_jobfilter);
  times.clear();
  for (const std::size_t g : r.job_filter.kept) times.push_back(rep_time(g));
  fit(times, r.fatal_after_jobfilter);
  std::vector<TimePoint> sys, app;
  for (const core::Interruption& in : r.matches.interruptions) {
    const ras::ErrcodeId code = r.filtered.fatal_events[r.filtered.groups[in.group].rep].errcode;
    const auto it = r.classification.by_code.find(code);
    const bool is_app =
        it != r.classification.by_code.end() && it->second.cause == core::Cause::ApplicationError;
    (is_app ? app : sys).push_back(in.time);
  }
  fit(sys, r.interruptions_system);
  fit(app, r.interruptions_application);
  r.system_interruptions = sys.size();
  r.application_interruptions = app.size();
  std::set<joblog::ExecId> distinct;
  for (const core::Interruption& in : r.matches.interruptions) {
    distinct.insert(jobs[in.job].exec_id);
  }
  r.distinct_interrupted_jobs = distinct.size();

  // The Fig. 5 and Fig. 4 series.
  if (!jobs.empty()) {
    r.interruptions_per_day = traced(t, kDailyCounter, [&] {
      stream::DailyCounter daily(jobs.summary().first_submit);
      for (const core::Interruption& in : r.matches.interruptions) daily.add(in.time);
      daily.ensure_days(1);
      return daily.take();
    });
  }
  traced(t, kMidplaneTallies, [&] {
    stream::MidplaneTallies tallies(jobs.machine());
    for (const filter::EventGroup& g : r.filtered.groups) {
      tallies.add_group_rep(r.filtered.fatal_events[g.rep].location);
    }
    for (const joblog::JobRecord& job : jobs) tallies.add_job(job);
    r.fatal_events_per_midplane = std::move(tallies.fatal_events);
    r.workload_per_midplane = std::move(tallies.workload_sec);
    r.wide_workload_per_midplane = std::move(tallies.wide_workload_sec);
  });
  r.shards_used = front.shards_used;
  r.peak_stage_state = front.peak_stage_state;
  return r;
}

void report_analysis_layers(Report& report, const std::vector<TracedOp>& ops) {
  report.layer("stream.frontend_ms", self_p50(ops, {kFrontEnd}));
  report.layer("core.identification_ms", self_p50(ops, {kIdentify}));
  report.layer("core.char_columns_ms", self_p50(ops, {kCharColumns}));
  report.layer("core.classification_ms", self_p50(ops, {kClassify}));
  report.layer("core.job_filter_ms", self_p50(ops, {kJobFilter}));
  report.layer("core.propagation_ms", self_p50(ops, {kPropagation}));
  report.layer("core.vulnerability_ms", self_p50(ops, {kVulnerability}));
  report.layer("core.interarrival_ms", self_p50(ops, {kInterarrivalSeconds, kFitInterarrivals}));
  report.layer("stream.census_ms", self_p50(ops, {kDailyCounter, kMidplaneTallies}));
}

}  // namespace e2e
